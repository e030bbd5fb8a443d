//! Adaptive fleet control: fault injection, replica failure recovery,
//! autoscaling and online policy switching.
//!
//! [`ControlledFleet`] is the one fleet driver: a global *event loop* over
//! per-replica [`BatchSession`]s that interleaves four event sources in
//! simulated time. [`crate::fleet::FleetSim`] — the steady-state question,
//! how many tokens/s-per-GPU a fixed replica fleet sustains when nothing
//! breaks — is this loop with an empty [`FaultPlan`], no controller windows
//! and [`NoControl`]; this module adds what makes the fleet adaptive.
//!
//! 1. **Arrivals** are dispatched one at a time, at their arrival instant,
//!    against the [`DispatchState`](crate::fleet) bookkeeping — restricted
//!    to the replicas currently eligible (alive, warm, not draining). With
//!    no faults and no controller the eligible set is always the full
//!    fleet, and the run is **bit-exact** with serving each replica's share
//!    of the trace alone, run-to-completion, on a
//!    [`BatchScheduler`](crate::BatchScheduler) (`tests/fleet_chaos.rs`
//!    keeps that per-replica oracle, with and without an expert cache).
//! 2. **Faults** from a deterministic, seed-driven
//!    [`FaultPlan`]: replica kills (in-flight
//!    work is drained and *redispatched* — the placement-independent route
//!    seed replays the identical token stream on the new replica, so zero
//!    requests are lost), stalls, and link degradations.
//! 3. **Controller windows**: every `window_ns` a [`FleetController`]
//!    observes windowed deltas ([`ControlWindow`]) and may scale the fleet
//!    up (cache-cold replicas that take `warmup_ns` to come online), scale
//!    it down (replicas drain before retiring), or swap the expert
//!    scheduler on live replicas at an iteration boundary
//!    ([`BatchSession::swap_scheduler`]).
//! 4. **Replica steps**: each replica independently takes the same
//!    `BatchSession::pump` turn `BatchScheduler::serve` loops over —
//!    idle-jump, FIFO admission, one decode step — at its own clock.
//!
//! The returned [`FleetStats`] carries a [`ControlStats`] block accounting
//! for every fault injected, request redispatched, token of work dropped,
//! and scaling/switching action taken, plus `gpu_time` billed per replica
//! from spawn to retirement — so an elastic deployment is scored on
//! [`FleetStats::tokens_per_gpu_second`], the GPU-seconds it actually
//! rented, not on a fixed fleet's makespan.

use crate::batch::validate_arrivals;
use crate::fleet::{DispatchPolicy, DispatchState, FleetConfig, FleetStats};
use crate::scheduler::PolicySpec;
use crate::serve::ServeStats;
use crate::session::BatchSession;
use crate::{Result, RuntimeError, SimOptions};
use pgmoe_device::{SimDuration, SimTime};
use pgmoe_model::ModelConfig;
use pgmoe_workload::{stamp_route_seeds, ArrivedRequest, FaultKind, FaultPlan};
use std::collections::VecDeque;

/// Control-loop knobs: how often the controller observes, and how long a
/// scaled-up replica takes to come online.
#[derive(Debug, Clone, Copy)]
pub struct ControlOptions {
    /// Controller observation period, ns. `0` disables controller windows
    /// entirely (faults are still injected).
    pub window_ns: u64,
    /// Provisioning delay for a scaled-up replica, ns: the new replica's
    /// clock starts this far after the scale-up decision, and it is not
    /// eligible for dispatch before then. Its expert cache starts cold
    /// either way.
    pub warmup_ns: u64,
}

impl Default for ControlOptions {
    fn default() -> Self {
        ControlOptions { window_ns: 100_000_000, warmup_ns: 250_000_000 }
    }
}

/// What the controller observes about one replica over the last window.
#[derive(Debug, Clone)]
pub struct ReplicaObs {
    /// Still serving (not killed, not retired).
    pub alive: bool,
    /// Scaled up but not yet past its warm-up instant.
    pub warming: bool,
    /// Marked for scale-down: finishing its backlog, receiving no new work.
    pub draining: bool,
    /// Requests dispatched here and not yet admitted into the batch.
    pub queued: usize,
    /// Requests currently decoding.
    pub in_flight: usize,
    /// Tokens generated during the window.
    pub tokens_delta: usize,
    /// Expert bytes fetched on block critical paths during the window — the
    /// routing-drift signal ([`DriftSwitcher`] watches this per token).
    pub demand_bytes_delta: u64,
    /// Total expert bytes migrated during the window.
    pub fetch_bytes_delta: u64,
}

/// Windowed fleet deltas handed to [`FleetController::observe`] — the
/// operator dashboard a real control loop would poll, never the replicas'
/// internal simulator state.
#[derive(Debug)]
pub struct ControlWindow<'a> {
    /// Observation instant, ns.
    pub now_ns: u64,
    /// Window length, ns.
    pub window_ns: u64,
    /// Requests that arrived during the window.
    pub arrivals_delta: usize,
    /// Requests that completed during the window.
    pub completions_delta: usize,
    /// Requests dispatched but unfinished, fleet-wide (queued + in flight).
    pub backlog: usize,
    /// Per-replica observations, replica order (dead replicas included so
    /// indices stay stable).
    pub replicas: &'a [ReplicaObs],
}

/// An action the controller asks the fleet to take at a window boundary.
#[derive(Debug, Clone)]
pub enum ControlAction {
    /// Add this many cache-cold replicas; each is dispatchable after
    /// [`ControlOptions::warmup_ns`].
    ScaleUp {
        /// How many replicas to add.
        replicas: usize,
    },
    /// Drain and retire this many replicas (the least-loaded first). The
    /// fleet never drains below one serving replica.
    ScaleDown {
        /// How many replicas to retire.
        replicas: usize,
    },
    /// Swap the expert scheduler on a live replica (or every live replica)
    /// at its next iteration boundary. The replacement must preserve the
    /// static placement footprint ([`BatchSession::swap_scheduler`]).
    SwitchPolicy {
        /// Target replica index, or `None` for the whole fleet.
        replica: Option<usize>,
        /// The scheduler to switch to.
        policy: PolicySpec,
    },
}

/// A fleet control policy: observes windowed stats deltas, decides scaling
/// and policy-switching actions. Implementations must be deterministic —
/// the whole simulation is.
pub trait FleetController {
    /// Display name threaded into [`ControlStats::controller`].
    fn name(&self) -> String;

    /// Observe one window, return the actions to apply at this boundary.
    fn observe(&mut self, window: &ControlWindow<'_>) -> Vec<ControlAction>;
}

/// The do-nothing controller: observes, never acts. A controlled run with
/// `NoControl` and an empty fault plan is what
/// [`FleetSim::serve`](crate::fleet::FleetSim::serve) reports.
#[derive(Debug, Default)]
pub struct NoControl;

impl FleetController for NoControl {
    fn name(&self) -> String {
        "no-control".into()
    }

    fn observe(&mut self, _window: &ControlWindow<'_>) -> Vec<ControlAction> {
        Vec::new()
    }
}

/// Backlog-proportional autoscaler: targets enough serving replicas that
/// the fleet-wide backlog stays under `up_backlog_per_replica` requests
/// each, scaling up immediately and scaling down one replica at a time
/// after `cooldown_windows` quiet windows — the asymmetry that survives
/// flash crowds without flapping through them.
#[derive(Debug, Clone)]
pub struct QueueAutoScaler {
    /// Never drain below this many serving replicas.
    pub min_replicas: usize,
    /// Never scale above this many serving replicas.
    pub max_replicas: usize,
    /// Backlog per serving replica that triggers a scale-up.
    pub up_backlog_per_replica: usize,
    /// Backlog per serving replica under which a scale-down is considered.
    pub down_backlog_per_replica: usize,
    /// Quiet windows required between scale-downs.
    pub cooldown_windows: usize,
    cooldown: usize,
}

impl QueueAutoScaler {
    /// An autoscaler holding serving capacity between `min` and `max`
    /// replicas, scaling up past `up_backlog_per_replica` queued requests
    /// per replica and down (after a 2-window cooldown) under
    /// `down_backlog_per_replica`.
    pub fn new(min: usize, max: usize, up_backlog_per_replica: usize) -> Self {
        assert!(min >= 1, "an autoscaler must keep at least one replica");
        assert!(max >= min, "max_replicas must be at least min_replicas");
        assert!(up_backlog_per_replica >= 1, "the scale-up trigger must be at least 1");
        QueueAutoScaler {
            min_replicas: min,
            max_replicas: max,
            up_backlog_per_replica,
            down_backlog_per_replica: up_backlog_per_replica / 4,
            cooldown_windows: 2,
            cooldown: 0,
        }
    }
}

impl FleetController for QueueAutoScaler {
    fn name(&self) -> String {
        format!(
            "queue-autoscaler({}..{}, up@{})",
            self.min_replicas, self.max_replicas, self.up_backlog_per_replica
        )
    }

    fn observe(&mut self, window: &ControlWindow<'_>) -> Vec<ControlAction> {
        self.cooldown = self.cooldown.saturating_sub(1);
        let serving = window.replicas.iter().filter(|r| r.alive && !r.draining).count().max(1);
        let target = window
            .backlog
            .div_ceil(self.up_backlog_per_replica)
            .clamp(self.min_replicas, self.max_replicas);
        if target > serving {
            self.cooldown = self.cooldown_windows;
            return vec![ControlAction::ScaleUp { replicas: target - serving }];
        }
        if serving > self.min_replicas
            && self.cooldown == 0
            && window.backlog <= self.down_backlog_per_replica * (serving - 1)
        {
            self.cooldown = self.cooldown_windows;
            return vec![ControlAction::ScaleDown { replicas: 1 }];
        }
        Vec::new()
    }
}

/// Routing-drift detector: watches the fleet-wide demand-fetch bytes per
/// generated token. The first window establishes a baseline; when a later
/// window exceeds `threshold ×` that baseline (the hot expert set has
/// rotated out from under the caches), it switches every replica to the
/// fallback policy — once. A run in which the detector never fires is
/// bit-exact with [`NoControl`].
#[derive(Debug, Clone)]
pub struct DriftSwitcher {
    to: PolicySpec,
    threshold: f64,
    min_tokens: usize,
    baseline: Option<f64>,
    fired: bool,
}

impl DriftSwitcher {
    /// Switch the fleet to `to` when windowed demand-bytes-per-token
    /// exceeds `threshold ×` the first observed window. Windows generating
    /// fewer than `min_tokens` tokens are skipped (too noisy to baseline
    /// or trigger on).
    pub fn new(to: PolicySpec, threshold: f64, min_tokens: usize) -> Self {
        assert!(threshold > 0.0, "the drift threshold must be positive");
        DriftSwitcher { to, threshold, min_tokens, baseline: None, fired: false }
    }

    /// Whether the detector has fired.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl FleetController for DriftSwitcher {
    fn name(&self) -> String {
        format!("drift-switcher(to={}, x{})", self.to.name(), self.threshold)
    }

    fn observe(&mut self, window: &ControlWindow<'_>) -> Vec<ControlAction> {
        if self.fired {
            return Vec::new();
        }
        let tokens: usize = window.replicas.iter().map(|r| r.tokens_delta).sum();
        if tokens < self.min_tokens.max(1) {
            return Vec::new();
        }
        let demand: u64 = window.replicas.iter().map(|r| r.demand_bytes_delta).sum();
        let rate = demand as f64 / tokens as f64;
        match self.baseline {
            None => {
                self.baseline = Some(rate);
                Vec::new()
            }
            Some(base) if rate > self.threshold * base => {
                self.fired = true;
                vec![ControlAction::SwitchPolicy { replica: None, policy: self.to.clone() }]
            }
            Some(_) => Vec::new(),
        }
    }
}

/// Control-loop accounting attached to [`FleetStats::control`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlStats {
    /// Display name of the controller that ran the loop.
    pub controller: String,
    /// Fault events actually applied (events targeting dead or retired
    /// replicas are skipped).
    pub faults_injected: usize,
    /// Requests redispatched off a killed replica (counted per request per
    /// kill — a request can be redispatched twice).
    pub redispatched: usize,
    /// Tokens that were generated and then thrown away with a killed
    /// replica — work the fleet paid for twice.
    pub dropped_tokens: usize,
    /// Replicas added by the controller.
    pub scale_ups: usize,
    /// Replicas drained and retired by the controller.
    pub scale_downs: usize,
    /// Successful live scheduler swaps.
    pub policy_switches: usize,
    /// Largest number of concurrently alive replicas.
    pub peak_replicas: usize,
}

/// One request's lifecycle through the controlled fleet.
struct ReqState {
    arr: ArrivedRequest,
    replica: usize,
    queueing: SimDuration,
    first_token_ns: Option<u64>,
    done_ns: Option<u64>,
}

/// One replica slot: a live session plus the control-plane state around it.
struct Replica {
    session: Option<BatchSession>,
    /// Dispatched here, not yet admitted: request index + the request.
    queue: VecDeque<(usize, ArrivedRequest)>,
    alive: bool,
    draining: bool,
    warm_at_ns: u64,
    spawned_ns: u64,
    retired_ns: Option<u64>,
    degraded_until_ns: u64,
    degrade_factor: f64,
    snap_tokens: usize,
    snap_demand: u64,
    snap_fetch: u64,
    stats: Option<ServeStats>,
}

impl Replica {
    fn spawn(session: BatchSession, spawned_ns: u64, warm_at_ns: u64) -> Self {
        Replica {
            session: Some(session),
            queue: VecDeque::new(),
            alive: true,
            draining: false,
            warm_at_ns,
            spawned_ns,
            retired_ns: None,
            degraded_until_ns: 0,
            degrade_factor: 1.0,
            snap_tokens: 0,
            snap_demand: 0,
            snap_fetch: 0,
            stats: None,
        }
    }

    /// When this replica next does work: now if it is mid-batch, the moment
    /// it can admit its queue head if idle with queued work, never
    /// otherwise.
    fn ready_ns(&self) -> Option<u64> {
        let session = self.session.as_ref()?;
        if !self.alive {
            return None;
        }
        if session.in_flight() > 0 {
            return Some(session.clock().as_nanos());
        }
        self.queue.front().map(|(_, arr)| session.clock().as_nanos().max(arr.arrival_ns))
    }

    fn retire(&mut self, now_ns: u64) {
        if let Some(session) = self.session.take() {
            self.stats = Some(session.finish());
        }
        self.alive = false;
        self.retired_ns = Some(now_ns);
    }
}

/// A fault-tolerant, controller-driven fleet (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use pgmoe_model::ModelConfig;
/// use pgmoe_runtime::{
///     BatchConfig, ControlledFleet, FleetConfig, NoControl, OffloadPolicy, RoundRobin,
///     SimOptions,
/// };
/// use pgmoe_workload::{ArrivalProcess, ArrivalStream, DecodeRequest, FaultPlan};
///
/// let arrivals: Vec<_> = ArrivalStream::new(
///     ArrivalProcess::Poisson { rate_per_sec: 60.0 },
///     DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 },
///     1,
///     7,
/// )
/// .take(8)
/// .collect();
/// // Kill replica 1 early in the trace: its work drains and redispatches,
/// // and every request still completes.
/// let plan = FaultPlan::new().kill_at(arrivals[2].arrival_ns, 1);
/// let fleet = ControlledFleet::new(
///     ModelConfig::switch_base(8),
///     SimOptions::new(OffloadPolicy::Pregated),
///     FleetConfig::new(2, BatchConfig::new(4)),
/// );
/// let stats = fleet.serve(arrivals, &mut RoundRobin::new(), &plan, &mut NoControl)?;
/// assert_eq!(stats.request_latencies.len(), 8, "zero requests lost");
/// assert_eq!(stats.control.as_ref().unwrap().faults_injected, 1);
/// # Ok::<(), pgmoe_runtime::RuntimeError>(())
/// ```
pub struct ControlledFleet {
    cfg: ModelConfig,
    opts: SimOptions,
    fleet: FleetConfig,
    ctl: ControlOptions,
}

impl ControlledFleet {
    /// A controllable fleet of identical replicas serving `cfg` under
    /// `opts`, with default [`ControlOptions`].
    pub fn new(cfg: ModelConfig, opts: SimOptions, fleet: FleetConfig) -> Self {
        ControlledFleet { cfg, opts, fleet, ctl: ControlOptions::default() }
    }

    /// Builder: override the control-loop knobs.
    pub fn with_control(mut self, ctl: ControlOptions) -> Self {
        self.ctl = ctl;
        self
    }

    /// Serves `arrivals` under the fault plan and controller.
    ///
    /// Zero requests are lost: work on a killed replica is drained and
    /// redispatched, and the placement-independent route seed replays the
    /// identical token stream wherever a request lands. With an empty plan
    /// and [`NoControl`] this is the run
    /// [`FleetSim::serve`](crate::fleet::FleetSim::serve) reports.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] for an invalid fleet shape or
    ///   options, a dispatcher choosing an out-of-range replica, a fault
    ///   plan that kills every serving replica while work remains, or a
    ///   policy switch that would change the static placement footprint.
    /// * Any error a replica session raises (e.g. OOM on admission).
    pub fn serve(
        &self,
        arrivals: impl IntoIterator<Item = ArrivedRequest>,
        dispatch: &mut dyn DispatchPolicy,
        plan: &FaultPlan,
        controller: &mut dyn FleetController,
    ) -> Result<FleetStats> {
        self.fleet.validate()?;
        self.opts.validate(&self.cfg)?;
        let mut arrivals: Vec<ArrivedRequest> = arrivals.into_iter().collect();
        validate_arrivals(&arrivals)?;
        stamp_route_seeds(&mut arrivals, self.opts.seed);
        let mut ctl_stats = ControlStats {
            controller: controller.name(),
            faults_injected: 0,
            redispatched: 0,
            dropped_tokens: 0,
            scale_ups: 0,
            scale_downs: 0,
            policy_switches: 0,
            peak_replicas: self.fleet.replicas,
        };
        let Some(first_arrival_ns) = arrivals.first().map(|a| a.arrival_ns) else {
            // An empty trace never touches a machine: every replica reports
            // the zeroed stats and nothing is billed.
            let idle = vec![ServeStats::empty(&self.cfg, &self.opts); self.fleet.replicas];
            return Ok(self.assemble(dispatch.name(), &[], idle, 0, ctl_stats));
        };

        let mut state = DispatchState::new(&self.cfg, &self.opts, self.fleet.replicas)?;
        let mut replicas: Vec<Replica> = (0..self.fleet.replicas)
            .map(|_| {
                BatchSession::new(self.cfg.clone(), self.opts.clone(), self.fleet.batch)
                    .map(|s| Replica::spawn(s, 0, 0))
            })
            .collect::<Result<_>>()?;
        let mut reqs: Vec<ReqState> = arrivals
            .iter()
            .map(|&arr| ReqState {
                arr,
                replica: 0,
                queueing: SimDuration::ZERO,
                first_token_ns: None,
                done_ns: None,
            })
            .collect();

        let mut cur_policy = self.opts.policy.clone();
        let faults = plan.events();
        let mut next_arrival = 0usize;
        let mut next_fault = 0usize;
        let mut next_window_ns = if self.ctl.window_ns > 0 { self.ctl.window_ns } else { u64::MAX };
        let mut completions = 0usize;
        let mut snap_arrivals = 0usize;
        let mut snap_completions = 0usize;

        loop {
            let work_left = next_arrival < arrivals.len()
                || replicas.iter().any(|r| {
                    !r.queue.is_empty()
                        || r.session.as_ref().map(|s| s.in_flight() > 0).unwrap_or(false)
                });
            if !work_left {
                break;
            }

            let t_arrival = arrivals.get(next_arrival).map(|a| a.arrival_ns).unwrap_or(u64::MAX);
            let t_fault = faults.get(next_fault).map(|f| f.at_ns).unwrap_or(u64::MAX);
            let t_window = next_window_ns;
            let (t_step, step_replica) = replicas
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.ready_ns().map(|t| (t, i)))
                .min()
                .map(|(t, i)| (t, Some(i)))
                .unwrap_or((u64::MAX, None));

            // Tie-break order at equal instants: dispatch new arrivals
            // before injecting faults, inject faults before the controller
            // observes, observe before replicas step. With no faults and no
            // windows each replica sees exactly what it would serving its
            // share of the trace alone.
            if t_arrival <= t_fault && t_arrival <= t_window && t_arrival <= t_step {
                let idx = next_arrival;
                next_arrival += 1;
                let arr = reqs[idx].arr;
                let r = self.place(idx, &arr, t_arrival, &mut state, &replicas, dispatch)?;
                reqs[idx].replica = r;
                replicas[r].queue.push_back((idx, arr));
            } else if t_fault <= t_window && t_fault <= t_step {
                let ev = faults[next_fault];
                next_fault += 1;
                self.inject(
                    ev.replica,
                    ev.at_ns,
                    ev.kind,
                    &mut replicas,
                    &mut reqs,
                    &mut state,
                    dispatch,
                    &mut ctl_stats,
                )?;
            } else if t_window <= t_step {
                next_window_ns = next_window_ns.saturating_add(self.ctl.window_ns);
                let obs: Vec<ReplicaObs> = replicas
                    .iter_mut()
                    .map(|r| {
                        let tokens =
                            r.session.as_ref().map(|s| s.total_tokens()).unwrap_or(r.snap_tokens);
                        let demand = r
                            .session
                            .as_ref()
                            .map(|s| s.demand_fetch_bytes())
                            .unwrap_or(r.snap_demand);
                        let fetch = r
                            .session
                            .as_ref()
                            .map(|s| s.expert_fetch_bytes())
                            .unwrap_or(r.snap_fetch);
                        let o = ReplicaObs {
                            alive: r.alive,
                            warming: r.alive && t_window < r.warm_at_ns,
                            draining: r.draining,
                            queued: r.queue.len(),
                            in_flight: r.session.as_ref().map(|s| s.in_flight()).unwrap_or(0),
                            tokens_delta: tokens - r.snap_tokens,
                            demand_bytes_delta: demand - r.snap_demand,
                            fetch_bytes_delta: fetch - r.snap_fetch,
                        };
                        r.snap_tokens = tokens;
                        r.snap_demand = demand;
                        r.snap_fetch = fetch;
                        o
                    })
                    .collect();
                let backlog: usize = obs.iter().map(|o| o.queued + o.in_flight).sum();
                let window = ControlWindow {
                    now_ns: t_window,
                    window_ns: self.ctl.window_ns,
                    arrivals_delta: next_arrival - snap_arrivals,
                    completions_delta: completions - snap_completions,
                    backlog,
                    replicas: &obs,
                };
                snap_arrivals = next_arrival;
                snap_completions = completions;
                let actions = controller.observe(&window);
                for action in actions {
                    self.apply(
                        action,
                        t_window,
                        &mut replicas,
                        &mut state,
                        &mut cur_policy,
                        &mut ctl_stats,
                    )?;
                }
            } else {
                let r = step_replica.expect("a step event requires a ready replica");
                self.step_replica(r, t_step, &mut replicas, &mut reqs, &mut completions)?;
            }
        }

        let last_completion_ns =
            reqs.iter().map(|r| r.done_ns.expect("loop exits only when all done")).max().unwrap();
        for rep in &mut replicas {
            if rep.session.is_some() {
                rep.retire(last_completion_ns);
                rep.retired_ns = None; // still rented at run end, not scaled away
            }
        }
        // Each replica is billed from joining the fleet (or the first
        // arrival) to retiring (or the last completion).
        let gpu_time_ns: u64 = replicas
            .iter()
            .map(|r| {
                let start = r.spawned_ns.max(first_arrival_ns);
                let end = r.retired_ns.unwrap_or(last_completion_ns).max(start);
                end - start
            })
            .sum();
        let replica_stats =
            replicas.into_iter().map(|r| r.stats.expect("every replica was finished")).collect();
        Ok(self.assemble(dispatch.name(), &reqs, replica_stats, gpu_time_ns, ctl_stats))
    }

    /// Dispatch one arrival (or redispatched orphan) among the replicas
    /// eligible at `t`: alive, not draining, warm. Falls back to warming
    /// replicas when nothing warm survives — better a cold replica than a
    /// lost request.
    fn place(
        &self,
        idx: usize,
        arr: &ArrivedRequest,
        t: u64,
        state: &mut DispatchState,
        replicas: &[Replica],
        dispatch: &mut dyn DispatchPolicy,
    ) -> Result<usize> {
        let warm: Vec<usize> = replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive && !r.draining && r.session.is_some() && r.warm_at_ns <= t)
            .map(|(i, _)| i)
            .collect();
        let eligible = if warm.is_empty() {
            replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.alive && !r.draining && r.session.is_some())
                .map(|(i, _)| i)
                .collect()
        } else {
            warm
        };
        if eligible.is_empty() {
            return Err(RuntimeError::InvalidConfig {
                message: format!(
                    "no serving replica left to dispatch request {idx} at t={t}ns \
                     (the fault plan or controller removed them all)"
                ),
            });
        }
        state.place(idx, arr, &eligible, dispatch)
    }

    /// Apply one fault event. Events aimed at dead, retired or out-of-range
    /// replicas are skipped.
    #[allow(clippy::too_many_arguments)]
    fn inject(
        &self,
        target: usize,
        at_ns: u64,
        kind: FaultKind,
        replicas: &mut [Replica],
        reqs: &mut [ReqState],
        state: &mut DispatchState,
        dispatch: &mut dyn DispatchPolicy,
        ctl: &mut ControlStats,
    ) -> Result<()> {
        if target >= replicas.len() || !replicas[target].alive {
            return Ok(());
        }
        match kind {
            FaultKind::KillReplica => {
                let rep = &mut replicas[target];
                let mut session = rep.session.take().expect("alive replica has a session");
                let aborted = session.drain_inflight();
                ctl.dropped_tokens += aborted.iter().map(|a| a.tokens_generated).sum::<usize>();
                rep.stats = Some(session.finish());
                rep.alive = false;
                rep.retired_ns = Some(at_ns.max(rep.spawned_ns));
                let mut orphans: Vec<usize> = aborted.iter().map(|a| a.id as usize).collect();
                orphans.extend(rep.queue.drain(..).map(|(idx, _)| idx));
                state.forget_replica(target);
                // Redispatch in arrival order — the convention every
                // dispatcher already assumes for its bookkeeping.
                orphans.sort_unstable_by_key(|&i| (reqs[i].arr.arrival_ns, i));
                for idx in orphans {
                    reqs[idx].first_token_ns = None;
                    reqs[idx].queueing = SimDuration::ZERO;
                    ctl.redispatched += 1;
                    let arr = reqs[idx].arr;
                    let r = self.place(idx, &arr, at_ns, state, replicas, dispatch)?;
                    reqs[idx].replica = r;
                    replicas[r].queue.push_back((idx, arr));
                    // Failover cannot rewind time: the surviving replica
                    // sees the orphan no earlier than the kill instant.
                    let session =
                        replicas[r].session.as_mut().expect("eligible replica has a session");
                    session.advance_clock(SimTime::from_nanos(at_ns));
                }
            }
            FaultKind::StallReplica { for_ns } => {
                let session =
                    replicas[target].session.as_mut().expect("alive replica has a session");
                let from = session.clock().max(SimTime::from_nanos(at_ns));
                session.advance_clock(from + SimDuration::from_nanos(for_ns));
            }
            FaultKind::DegradeLink { factor, for_ns } => {
                let rep = &mut replicas[target];
                rep.degrade_factor = factor;
                rep.degraded_until_ns = at_ns.saturating_add(for_ns);
            }
        }
        ctl.faults_injected += 1;
        Ok(())
    }

    /// Apply one controller action at window instant `now_ns`.
    fn apply(
        &self,
        action: ControlAction,
        now_ns: u64,
        replicas: &mut Vec<Replica>,
        state: &mut DispatchState,
        cur_policy: &mut PolicySpec,
        ctl: &mut ControlStats,
    ) -> Result<()> {
        match action {
            ControlAction::ScaleUp { replicas: n } => {
                for _ in 0..n {
                    let mut opts = self.opts.clone();
                    opts.policy = cur_policy.clone();
                    let mut session = BatchSession::new(self.cfg.clone(), opts, self.fleet.batch)?;
                    let warm_at = now_ns.saturating_add(self.ctl.warmup_ns);
                    session.advance_clock(SimTime::from_nanos(warm_at));
                    replicas.push(Replica::spawn(session, now_ns, warm_at));
                    state.add_replica();
                    ctl.scale_ups += 1;
                }
                ctl.peak_replicas =
                    ctl.peak_replicas.max(replicas.iter().filter(|r| r.alive).count());
            }
            ControlAction::ScaleDown { replicas: n } => {
                for _ in 0..n {
                    let serving = replicas.iter().filter(|r| r.alive && !r.draining).count();
                    if serving <= 1 {
                        break;
                    }
                    // Drain the least-loaded serving replica; ties retire
                    // the newest so the original fleet is kept warm.
                    let victim = replicas
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.alive && !r.draining)
                        .min_by_key(|(i, r)| {
                            let load = r.queue.len()
                                + r.session.as_ref().map(|s| s.in_flight()).unwrap_or(0);
                            (load, std::cmp::Reverse(*i))
                        })
                        .map(|(i, _)| i)
                        .expect("serving > 1 guarantees a victim");
                    replicas[victim].draining = true;
                    let idle = replicas[victim].queue.is_empty()
                        && replicas[victim]
                            .session
                            .as_ref()
                            .map(|s| s.in_flight() == 0)
                            .unwrap_or(true);
                    if idle {
                        replicas[victim].retire(now_ns);
                    }
                    ctl.scale_downs += 1;
                }
            }
            ControlAction::SwitchPolicy { replica, policy } => {
                let targets: Vec<usize> = match replica {
                    Some(i) => vec![i],
                    None => (0..replicas.len()).collect(),
                };
                for i in targets {
                    let Some(rep) = replicas.get_mut(i) else { continue };
                    if !rep.alive {
                        continue;
                    }
                    if let Some(session) = rep.session.as_mut() {
                        session.swap_scheduler(policy.clone())?;
                        ctl.policy_switches += 1;
                    }
                }
                if replica.is_none() {
                    *cur_policy = policy;
                }
            }
        }
        Ok(())
    }

    /// One replica iteration at `start_ns`, the replica's
    /// [`Replica::ready_ns`]: the shared [`BatchSession::pump`] turn, plus
    /// the degraded-link stretch and drain retirement.
    fn step_replica(
        &self,
        r: usize,
        start_ns: u64,
        replicas: &mut [Replica],
        reqs: &mut [ReqState],
        completions: &mut usize,
    ) -> Result<()> {
        let rep = &mut replicas[r];
        let session = rep.session.as_mut().expect("ready replica has a session");
        let events = session.pump(&mut rep.queue, |idx, queueing| reqs[idx].queueing = queueing)?;
        if start_ns < rep.degraded_until_ns && rep.degrade_factor > 1.0 {
            // A degraded link stretches the iteration wall-clock: the next
            // boundary slips by (factor - 1) x the span just executed.
            let span = session.clock().duration_since(SimTime::from_nanos(start_ns));
            let extra = (span.as_nanos() as f64 * (rep.degrade_factor - 1.0)).round() as u64;
            session.advance_clock(session.clock() + SimDuration::from_nanos(extra));
        }
        for ev in events {
            let req = &mut reqs[ev.id as usize];
            if req.first_token_ns.is_none() {
                req.first_token_ns = Some(ev.at.as_nanos());
            }
            if ev.done {
                req.done_ns = Some(ev.at.as_nanos());
                *completions += 1;
            }
        }
        if rep.draining && rep.queue.is_empty() && session.in_flight() == 0 {
            let now = session.clock().as_nanos();
            rep.retire(now);
        }
        Ok(())
    }

    /// Merges per-request lifecycles (arrival order) and per-replica stats
    /// into [`FleetStats`].
    fn assemble(
        &self,
        dispatch: String,
        reqs: &[ReqState],
        replica_stats: Vec<ServeStats>,
        gpu_time_ns: u64,
        ctl: ControlStats,
    ) -> FleetStats {
        let first_arrival_ns = reqs.first().map(|r| r.arr.arrival_ns).unwrap_or(0);
        let mut last_completion_ns = 0u64;
        let mut latencies = Vec::with_capacity(reqs.len());
        let mut queueing = Vec::with_capacity(reqs.len());
        let mut ttfts = Vec::with_capacity(reqs.len());
        let mut assignment = Vec::with_capacity(reqs.len());
        for r in reqs {
            let done = r.done_ns.expect("all requests complete");
            let first = r.first_token_ns.expect("completed requests emitted a first token");
            last_completion_ns = last_completion_ns.max(done);
            latencies.push(SimDuration::from_nanos(done - r.arr.arrival_ns));
            ttfts.push(SimDuration::from_nanos(first - r.arr.arrival_ns));
            queueing.push(r.queueing);
            assignment.push(r.replica);
        }
        let makespan = SimDuration::from_nanos(last_completion_ns.saturating_sub(first_arrival_ns));
        // Delivered tokens only; the per-replica stats below still include
        // the dropped work, so throughput never counts a token twice.
        let total_tokens: usize = reqs.iter().map(|r| r.arr.request.output_tokens).sum();
        let tokens_per_sec = if makespan == SimDuration::ZERO {
            0.0
        } else {
            total_tokens as f64 / makespan.as_secs_f64()
        };
        let utilization = replica_stats
            .iter()
            .map(|s| {
                if makespan == SimDuration::ZERO {
                    0.0
                } else {
                    s.gpu_busy.as_nanos() as f64 / makespan.as_nanos() as f64
                }
            })
            .collect();
        FleetStats {
            dispatch,
            policy: replica_stats.first().map(|s| s.policy.clone()).unwrap_or_default(),
            gpus: ctl.peak_replicas,
            expert_fetch_bytes: replica_stats.iter().map(|s| s.expert_fetch_bytes).sum(),
            demand_fetch_bytes: replica_stats.iter().map(|s| s.demand_fetch_bytes).sum(),
            peak_hbm_bytes: replica_stats.iter().map(|s| s.peak_hbm_bytes).max().unwrap_or(0),
            replicas: replica_stats,
            assignment,
            request_latencies: latencies,
            queueing_delays: queueing,
            ttfts,
            total_tokens,
            makespan,
            tokens_per_sec,
            utilization,
            gpu_time: SimDuration::from_nanos(gpu_time_ns),
            control: Some(ctl),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{JoinShortestQueue, RoundRobin};
    use crate::{BatchConfig, OffloadPolicy};
    use pgmoe_workload::{ArrivalProcess, ArrivalStream, DecodeRequest};

    fn req(output: usize) -> DecodeRequest {
        DecodeRequest { input_tokens: 16, output_tokens: output, batch_size: 1 }
    }

    fn poisson(n: usize, rate: f64, seed: u64) -> Vec<ArrivedRequest> {
        ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: rate }, req(6), 1, seed)
            .take(n)
            .collect()
    }

    fn controlled(replicas: usize) -> ControlledFleet {
        ControlledFleet::new(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            FleetConfig::new(replicas, BatchConfig::new(4)),
        )
    }

    #[test]
    fn killing_a_replica_loses_no_requests() {
        let arrivals = poisson(16, 150.0, 5);
        let kill_at = arrivals[5].arrival_ns + 1;
        let plan = FaultPlan::new().kill_at(kill_at, 1);
        let stats = controlled(2)
            .serve(arrivals.clone(), &mut RoundRobin::new(), &plan, &mut NoControl)
            .unwrap();
        assert_eq!(stats.request_latencies.len(), 16, "zero requests lost");
        assert_eq!(
            stats.total_tokens,
            arrivals.iter().map(|a| a.request.output_tokens).sum::<usize>(),
            "every stream completes with its full token count"
        );
        let ctl = stats.control.unwrap();
        assert_eq!(ctl.faults_injected, 1);
        assert!(ctl.redispatched > 0, "the dead replica's work must move");
        // Requests placed after the kill never land on the dead replica.
        for (i, a) in arrivals.iter().enumerate() {
            if a.arrival_ns > kill_at {
                assert_ne!(stats.assignment[i], 1, "request {i} dispatched to a dead replica");
            }
        }
    }

    #[test]
    fn stall_and_degrade_inflate_latency_without_losing_work() {
        let arrivals = poisson(12, 200.0, 9);
        let t0 = arrivals[0].arrival_ns;
        let clean = controlled(2)
            .serve(arrivals.clone(), &mut RoundRobin::new(), &FaultPlan::new(), &mut NoControl)
            .unwrap();
        let plan = FaultPlan::new().stall_at(t0 + 1, 0, 50_000_000).degrade_link_at(
            t0 + 1,
            1,
            4.0,
            1_000_000_000,
        );
        let faulty =
            controlled(2).serve(arrivals, &mut RoundRobin::new(), &plan, &mut NoControl).unwrap();
        assert_eq!(faulty.request_latencies.len(), 12);
        assert_eq!(faulty.total_tokens, clean.total_tokens);
        assert_eq!(faulty.control.as_ref().unwrap().faults_injected, 2);
        assert!(
            faulty.makespan > clean.makespan,
            "a stalled replica and a degraded link must slow the run \
             ({} vs {})",
            faulty.makespan,
            clean.makespan
        );
    }

    #[test]
    fn killing_every_replica_with_work_left_errors() {
        let arrivals = poisson(8, 100.0, 3);
        let plan = FaultPlan::new()
            .kill_at(arrivals[1].arrival_ns + 1, 0)
            .kill_at(arrivals[1].arrival_ns + 2, 1);
        let err = controlled(2).serve(arrivals, &mut RoundRobin::new(), &plan, &mut NoControl);
        assert!(matches!(err, Err(RuntimeError::InvalidConfig { .. })));
    }

    #[test]
    fn autoscaler_rides_a_flash_crowd() {
        let arrivals: Vec<ArrivedRequest> = ArrivalStream::new(
            ArrivalProcess::FlashCrowd {
                base_per_sec: 20.0,
                flash_per_sec: 400.0,
                flash_start_s: 0.3,
                flash_len_s: 0.4,
            },
            req(6),
            1,
            17,
        )
        .take(60)
        .collect();
        let ctl = ControlOptions { window_ns: 50_000_000, warmup_ns: 50_000_000 };
        let mut scaler = QueueAutoScaler::new(1, 6, 4);
        let stats = controlled(1)
            .with_control(ctl)
            .serve(arrivals, &mut JoinShortestQueue::new(), &FaultPlan::new(), &mut scaler)
            .unwrap();
        assert_eq!(stats.request_latencies.len(), 60);
        let c = stats.control.unwrap();
        assert!(c.scale_ups > 0, "the flash crowd must trigger a scale-up");
        assert!(c.peak_replicas > 1);
        assert!(
            stats.gpu_time.as_nanos() < stats.makespan.as_nanos() * c.peak_replicas as u64,
            "elastic billing must undercut peak-sized static billing"
        );
    }

    #[test]
    fn autoscaler_scales_back_down_in_the_valley() {
        // Flash crowd early, then a long sparse tail: the scaler must both
        // grow and shrink.
        let mut arrivals: Vec<ArrivedRequest> =
            ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: 500.0 }, req(6), 1, 23)
                .take(30)
                .collect();
        let burst_end = arrivals.last().unwrap().arrival_ns;
        for i in 0u64..10 {
            arrivals.push(ArrivedRequest::at_nanos(burst_end + (i + 1) * 400_000_000, req(4)));
        }
        let ctl = ControlOptions { window_ns: 50_000_000, warmup_ns: 20_000_000 };
        let mut scaler = QueueAutoScaler::new(1, 4, 4);
        let stats = controlled(1)
            .with_control(ctl)
            .serve(arrivals, &mut JoinShortestQueue::new(), &FaultPlan::new(), &mut scaler)
            .unwrap();
        let c = stats.control.unwrap();
        assert!(c.scale_ups > 0);
        assert!(c.scale_downs > 0, "the sparse tail must trigger a scale-down");
        assert_eq!(stats.request_latencies.len(), 40);
    }

    #[test]
    fn drift_switcher_swaps_every_replica_once() {
        let arrivals = poisson(20, 150.0, 7);
        let ctl = ControlOptions { window_ns: 20_000_000, warmup_ns: 0 };
        // Threshold 0 < any rate: fires at the first post-baseline window.
        let mut switcher = DriftSwitcher::new(PolicySpec::from(OffloadPolicy::OnDemand), 1e-9, 1);
        let stats = controlled(2)
            .with_control(ctl)
            .serve(arrivals, &mut RoundRobin::new(), &FaultPlan::new(), &mut switcher)
            .unwrap();
        assert!(switcher.fired());
        let c = stats.control.unwrap();
        assert_eq!(c.policy_switches, 2, "both replicas switch");
        assert_eq!(stats.policy, "MoE-OnDemand", "the fleet finishes on the new policy");
        assert_eq!(stats.request_latencies.len(), 20);
    }

    #[test]
    fn a_silent_detector_is_bit_exact_with_no_control() {
        let arrivals = poisson(14, 120.0, 31);
        let ctl = ControlOptions { window_ns: 25_000_000, warmup_ns: 0 };
        let plain = controlled(2)
            .with_control(ctl)
            .serve(arrivals.clone(), &mut RoundRobin::new(), &FaultPlan::new(), &mut NoControl)
            .unwrap();
        // A threshold no real trace exceeds: the detector observes every
        // window and never fires.
        let mut switcher = DriftSwitcher::new(PolicySpec::from(OffloadPolicy::OnDemand), 1e12, 1);
        let silent = controlled(2)
            .with_control(ctl)
            .serve(arrivals, &mut RoundRobin::new(), &FaultPlan::new(), &mut switcher)
            .unwrap();
        assert!(!switcher.fired());
        assert_eq!(silent.assignment, plain.assignment);
        assert_eq!(silent.request_latencies, plain.request_latencies);
        assert_eq!(silent.ttfts, plain.ttfts);
        assert_eq!(silent.expert_fetch_bytes, plain.expert_fetch_bytes);
        assert_eq!(silent.demand_fetch_bytes, plain.demand_fetch_bytes);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        assert!(matches!(
            FleetConfig::new(0, BatchConfig::new(4)).validate(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            FleetConfig::new(2, BatchConfig::new(0)).validate(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        let err = controlled(0).serve(
            poisson(2, 10.0, 1),
            &mut RoundRobin::new(),
            &FaultPlan::new(),
            &mut NoControl,
        );
        assert!(matches!(err, Err(RuntimeError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_stream_reports_zeroed_stats_with_control_block() {
        let stats = controlled(2)
            .serve(Vec::new(), &mut RoundRobin::new(), &FaultPlan::new(), &mut NoControl)
            .unwrap();
        assert_eq!(stats.total_tokens, 0);
        assert!(stats.request_latencies.is_empty());
        assert_eq!(stats.gpus, 2);
        assert_eq!(stats.control.unwrap().controller, "no-control");
    }
}
