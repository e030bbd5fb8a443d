//! The dataflow discrete-event engine: streams, events and resources.
//!
//! Semantics mirror CUDA's execution model, which is what the paper's system
//! design is written against:
//!
//! * A **stream** executes its ops in submission order.
//! * A **resource** (GPU SMs, a PCIe DMA engine) is occupied exclusively by
//!   one op at a time; streams bound to the same resource serialize on it in
//!   submission order.
//! * An **event** marks the completion of an op; ops may wait on events from
//!   any stream, which is how expert prefetch (copy stream) synchronises with
//!   expert execution (compute stream).
//!
//! Op durations are known at submission (they come from the analytic
//! [`crate::CostModel`]), so the engine resolves each op's start time as
//! `max(stream tail, resource free time, waited events)` — an exact
//! discrete-event schedule computed online, with a full trace retained for
//! timeline rendering (Fig 9).

use crate::{SimDuration, SimTime, TraceSpan};

/// Handle to an in-order execution queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

/// Handle to an exclusive hardware resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

/// Handle to a completion event produced by [`SimEngine::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(usize);

#[derive(Debug, Clone)]
struct StreamState {
    name: String,
    resource: ResourceId,
    tail: SimTime,
}

#[derive(Debug, Clone)]
struct ResourceState {
    #[allow(dead_code)]
    name: String,
    free_at: SimTime,
    busy: SimDuration,
}

/// The simulation engine: streams serialize their ops, resources serialize
/// across streams, events order across streams (CUDA semantics; details in
/// the source module's header comment).
///
/// # Example
///
/// ```
/// use pgmoe_device::{SimEngine, SimDuration};
///
/// let mut eng = SimEngine::new();
/// let gpu = eng.add_resource("gpu");
/// let pcie = eng.add_resource("pcie");
/// let compute = eng.add_stream("compute", gpu);
/// let copy = eng.add_stream("copy", pcie);
///
/// // Fetch overlaps with unrelated compute, then dependent compute waits.
/// let fetch = eng.submit(copy, "h2d", SimDuration::from_micros(600), &[]);
/// let attn = eng.submit(compute, "attn", SimDuration::from_micros(200), &[]);
/// let ffn = eng.submit(compute, "ffn", SimDuration::from_micros(300), &[fetch]);
/// assert!(eng.event_time(ffn) >= eng.event_time(fetch));
/// assert_eq!(eng.event_time(attn).as_nanos(), 200_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimEngine {
    streams: Vec<StreamState>,
    resources: Vec<ResourceState>,
    /// Completion times of the live events: `EventId(i)` is
    /// `events[i - retired]`.
    events: Vec<SimTime>,
    /// Events dropped by [`SimEngine::retire_events`] so far.
    retired: usize,
    trace: Vec<TraceSpan>,
    trace_enabled: bool,
}

impl SimEngine {
    /// Creates an empty engine with tracing enabled.
    pub fn new() -> Self {
        SimEngine { trace_enabled: true, ..Default::default() }
    }

    /// Enables or disables trace-span retention (disable for long sweeps).
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
    }

    /// Whether trace spans are currently retained.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Registers an exclusive resource (e.g. `"gpu"`, `"pcie-dma"`).
    pub fn add_resource(&mut self, name: &str) -> ResourceId {
        self.resources.push(ResourceState {
            name: name.to_string(),
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Registers an in-order stream bound to `resource`.
    pub fn add_stream(&mut self, name: &str, resource: ResourceId) -> StreamId {
        assert!(resource.0 < self.resources.len(), "unknown resource");
        self.streams.push(StreamState { name: name.to_string(), resource, tail: SimTime::ZERO });
        StreamId(self.streams.len() - 1)
    }

    /// Submits an op of length `duration` to `stream`, starting no earlier
    /// than every event in `waits`. Returns the op's completion event.
    ///
    /// # Panics
    ///
    /// Panics on unknown stream or event handles (these are engine-scoped).
    pub fn submit(
        &mut self,
        stream: StreamId,
        label: &str,
        duration: SimDuration,
        waits: &[EventId],
    ) -> EventId {
        let mut start = self.streams[stream.0].tail;
        let resource = self.streams[stream.0].resource;
        start = start.max(self.resources[resource.0].free_at);
        for &w in waits {
            start = start.max(self.event_time(w));
        }
        let end = start + duration;
        self.streams[stream.0].tail = end;
        self.resources[resource.0].free_at = end;
        self.resources[resource.0].busy += duration;
        self.events.push(end);
        if self.trace_enabled {
            self.trace.push(TraceSpan {
                stream: self.streams[stream.0].name.clone(),
                label: label.to_string(),
                start,
                end,
            });
        }
        EventId(self.retired + self.events.len() - 1)
    }

    /// Submits a zero-length barrier on `stream` that waits for `waits`.
    ///
    /// This models `cudaStreamWaitEvent`: subsequent ops on `stream` cannot
    /// start before every waited event has completed.
    pub fn barrier(&mut self, stream: StreamId, waits: &[EventId]) -> EventId {
        self.submit(stream, "barrier", SimDuration::ZERO, waits)
    }

    /// Completion time of an event.
    ///
    /// # Panics
    ///
    /// Panics on foreign or retired handles.
    pub fn event_time(&self, event: EventId) -> SimTime {
        debug_assert!(event.0 >= self.retired, "event {} was retired", event.0);
        self.events[event.0 - self.retired]
    }

    /// Declares every event submitted so far dead: the caller holds no
    /// [`EventId`] it will wait on or query again. Their completion times
    /// are dropped (stream tails, resource occupancy and the trace are
    /// unaffected), so a long-lived engine's memory is bounded by the
    /// events of one retirement interval instead of growing with every op
    /// ever submitted. Ids keep counting from where they were; reading a
    /// retired one is a bug and panics.
    pub fn retire_events(&mut self) {
        self.retired += self.events.len();
        self.events.clear();
    }

    /// Events whose completion times are still retained.
    pub fn live_events(&self) -> usize {
        self.events.len()
    }

    /// Tail (time of last submitted op) of a stream.
    pub fn stream_tail(&self, stream: StreamId) -> SimTime {
        self.streams[stream.0].tail
    }

    /// Fast-forwards `stream` — and the resource it is bound to — to `tail`,
    /// accruing `busy` occupancy on the resource, without materializing any
    /// events. This is the end state a replayed schedule fragment whose op
    /// times were computed externally would have left behind (compiled
    /// decode plans replay whole iterations this way); because the
    /// fragment's ops are elided, nothing may wait on them later.
    ///
    /// # Panics
    ///
    /// Panics if `tail` would move the stream backwards.
    pub fn fast_forward(&mut self, stream: StreamId, tail: SimTime, busy: SimDuration) {
        let s = &mut self.streams[stream.0];
        assert!(tail >= s.tail, "fast_forward cannot rewind a stream");
        s.tail = tail;
        let r = &mut self.resources[s.resource.0];
        r.free_at = r.free_at.max(tail);
        r.busy += busy;
    }

    /// The latest instant across all streams — "wall clock" after everything
    /// submitted so far has drained.
    pub fn horizon(&self) -> SimTime {
        self.streams.iter().map(|s| s.tail).fold(SimTime::ZERO, SimTime::max)
    }

    /// Total busy time accumulated on a resource (for utilisation metrics).
    pub fn resource_busy(&self, resource: ResourceId) -> SimDuration {
        self.resources[resource.0].busy
    }

    /// The retained trace spans (empty if tracing is disabled).
    pub fn trace(&self) -> &[TraceSpan] {
        &self.trace
    }

    /// Drops retained trace spans (the schedule itself is unaffected).
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_two_streams() -> (SimEngine, StreamId, StreamId) {
        let mut eng = SimEngine::new();
        let gpu = eng.add_resource("gpu");
        let dma = eng.add_resource("dma");
        let compute = eng.add_stream("compute", gpu);
        let copy = eng.add_stream("copy", dma);
        (eng, compute, copy)
    }

    #[test]
    fn stream_ops_serialize_in_order() {
        let (mut eng, compute, _) = engine_with_two_streams();
        let a = eng.submit(compute, "a", SimDuration::from_nanos(100), &[]);
        let b = eng.submit(compute, "b", SimDuration::from_nanos(50), &[]);
        assert_eq!(eng.event_time(a).as_nanos(), 100);
        assert_eq!(eng.event_time(b).as_nanos(), 150);
    }

    #[test]
    fn independent_streams_overlap() {
        let (mut eng, compute, copy) = engine_with_two_streams();
        let a = eng.submit(compute, "exec", SimDuration::from_nanos(100), &[]);
        let b = eng.submit(copy, "fetch", SimDuration::from_nanos(100), &[]);
        // Both finish at t=100: true overlap.
        assert_eq!(eng.event_time(a).as_nanos(), 100);
        assert_eq!(eng.event_time(b).as_nanos(), 100);
        assert_eq!(eng.horizon().as_nanos(), 100);
    }

    #[test]
    fn event_wait_creates_cross_stream_dependency() {
        let (mut eng, compute, copy) = engine_with_two_streams();
        let fetch = eng.submit(copy, "fetch", SimDuration::from_nanos(500), &[]);
        let exec = eng.submit(compute, "exec", SimDuration::from_nanos(100), &[fetch]);
        assert_eq!(eng.event_time(exec).as_nanos(), 600);
    }

    #[test]
    fn shared_resource_serializes_across_streams() {
        let mut eng = SimEngine::new();
        let pcie = eng.add_resource("pcie");
        let s1 = eng.add_stream("h2d-1", pcie);
        let s2 = eng.add_stream("h2d-2", pcie);
        let a = eng.submit(s1, "a", SimDuration::from_nanos(100), &[]);
        let b = eng.submit(s2, "b", SimDuration::from_nanos(100), &[]);
        assert_eq!(eng.event_time(a).as_nanos(), 100);
        assert_eq!(eng.event_time(b).as_nanos(), 200, "same resource must serialize");
    }

    #[test]
    fn barrier_is_zero_length_but_ordering() {
        let (mut eng, compute, copy) = engine_with_two_streams();
        let fetch = eng.submit(copy, "fetch", SimDuration::from_nanos(300), &[]);
        let bar = eng.barrier(compute, &[fetch]);
        let exec = eng.submit(compute, "exec", SimDuration::from_nanos(10), &[]);
        assert_eq!(eng.event_time(bar).as_nanos(), 300);
        assert_eq!(eng.event_time(exec).as_nanos(), 310);
    }

    #[test]
    fn resource_busy_accumulates() {
        let (mut eng, compute, _) = engine_with_two_streams();
        eng.submit(compute, "a", SimDuration::from_nanos(100), &[]);
        eng.submit(compute, "b", SimDuration::from_nanos(200), &[]);
        let gpu = ResourceId(0);
        assert_eq!(eng.resource_busy(gpu).as_nanos(), 300);
    }

    #[test]
    fn trace_records_spans_in_submission_order() {
        let (mut eng, compute, copy) = engine_with_two_streams();
        eng.submit(copy, "fetch", SimDuration::from_nanos(500), &[]);
        eng.submit(compute, "exec", SimDuration::from_nanos(100), &[]);
        assert_eq!(eng.trace().len(), 2);
        assert_eq!(eng.trace()[0].label, "fetch");
        assert_eq!(eng.trace()[1].stream, "compute");
    }

    #[test]
    fn fast_forward_matches_equivalent_submissions() {
        // Submitting ops and fast-forwarding to their computed end state
        // must be indistinguishable to every engine observable.
        let (mut a, compute_a, copy_a) = engine_with_two_streams();
        a.submit(compute_a, "x", SimDuration::from_nanos(70), &[]);
        a.submit(copy_a, "y", SimDuration::from_nanos(40), &[]);
        let (mut b, compute_b, copy_b) = engine_with_two_streams();
        b.fast_forward(compute_b, SimTime::from_nanos(70), SimDuration::from_nanos(70));
        b.fast_forward(copy_b, SimTime::from_nanos(40), SimDuration::from_nanos(40));
        assert_eq!(a.horizon(), b.horizon());
        assert_eq!(a.stream_tail(compute_a), b.stream_tail(compute_b));
        assert_eq!(a.resource_busy(ResourceId(0)), b.resource_busy(ResourceId(0)));
        // Later submissions schedule identically on both engines.
        let ea = a.submit(compute_a, "z", SimDuration::from_nanos(5), &[]);
        let eb = b.submit(compute_b, "z", SimDuration::from_nanos(5), &[]);
        assert_eq!(a.event_time(ea), b.event_time(eb));
    }

    #[test]
    fn retiring_events_bounds_memory_and_keeps_the_schedule() {
        let (mut a, compute_a, copy_a) = engine_with_two_streams();
        let (mut b, compute_b, copy_b) = engine_with_two_streams();
        for round in 0..50u64 {
            b.retire_events();
            assert_eq!(b.live_events(), 0);
            let dur = SimDuration::from_nanos(10 + round);
            let fa = a.submit(copy_a, "fetch", dur, &[]);
            let fb = b.submit(copy_b, "fetch", dur, &[]);
            let ea = a.submit(compute_a, "exec", dur, &[fa]);
            let eb = b.submit(compute_b, "exec", dur, &[fb]);
            // Ids keep counting across retirements; times are unaffected.
            assert_eq!(ea, eb);
            assert_eq!(a.event_time(ea), b.event_time(eb));
            assert_eq!(b.live_events(), 2);
        }
        assert_eq!(a.live_events(), 100);
        assert_eq!(a.horizon(), b.horizon());
        assert_eq!(a.resource_busy(ResourceId(0)), b.resource_busy(ResourceId(0)));
    }

    #[test]
    #[should_panic]
    fn reading_a_retired_event_panics() {
        let (mut eng, compute, _) = engine_with_two_streams();
        let old = eng.submit(compute, "a", SimDuration::from_nanos(1), &[]);
        eng.retire_events();
        eng.submit(compute, "b", SimDuration::from_nanos(1), &[]);
        eng.event_time(old);
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn fast_forward_rejects_rewinds() {
        let (mut eng, compute, _) = engine_with_two_streams();
        eng.submit(compute, "a", SimDuration::from_nanos(100), &[]);
        eng.fast_forward(compute, SimTime::from_nanos(50), SimDuration::ZERO);
    }

    #[test]
    fn trace_can_be_disabled() {
        let (mut eng, compute, _) = engine_with_two_streams();
        eng.set_trace_enabled(false);
        eng.submit(compute, "a", SimDuration::from_nanos(1), &[]);
        assert!(eng.trace().is_empty());
    }
}
