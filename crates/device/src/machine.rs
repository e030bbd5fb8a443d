//! A ready-wired simulated machine: GPU + host + SSD + links + streams.

use crate::{
    CostModel, EventId, Link, MemoryPool, ResourceId, SimDuration, SimEngine, SimTime, StreamId,
    Tier, TraceSpan,
};

/// Configuration for a [`Machine`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// GPU HBM capacity in bytes.
    pub hbm_capacity: u64,
    /// Host DDR capacity in bytes.
    pub ddr_capacity: u64,
    /// SSD capacity in bytes.
    pub ssd_capacity: u64,
    /// Kernel cost model.
    pub cost: CostModel,
    /// CPU DRAM ↔ GPU link.
    pub pcie: Link,
    /// SSD → GPU path (paper's Fig 16 configuration routes expert reads
    /// through the SSD's much lower bandwidth).
    pub ssd_link: Link,
}

impl MachineConfig {
    /// The paper's testbed (Section V): A100-80GB, 1.8 TB DDR4, PCIe gen4.
    pub fn a100_like() -> Self {
        MachineConfig {
            hbm_capacity: 80 * (1 << 30),
            ddr_capacity: 1800 * (1 << 30),
            ssd_capacity: 8 * (1u64 << 40),
            cost: CostModel::a100_pcie4(),
            pcie: Link::pcie_gen4(),
            ssd_link: Link::nvme_ssd(),
        }
    }

    /// Same machine with a custom PCIe bandwidth (for the sensitivity
    /// ablation on where Pre-gated MoE stops hiding the fetch).
    pub fn with_pcie_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.pcie.bandwidth_bytes_per_sec = bytes_per_sec;
        self
    }
}

/// A simulated A100-class machine with one compute stream and one copy
/// stream, the exact two-stream structure the Pre-gated MoE system relies on
/// for overlapping expert migration with expert execution (Figs 7–9).
///
/// # Example
///
/// ```
/// use pgmoe_device::{Machine, MachineConfig, Tier};
///
/// let mut m = Machine::new(MachineConfig::a100_like());
/// let fetch = m.copy_to_gpu("expert", 18_874_368, Tier::Ddr, &[]);
/// let exec = m.launch_kernel("ffn", 0.0, 18_874_368, &[fetch]);
/// let done = m.event_time(exec);
/// assert!(done.as_nanos() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    engine: SimEngine,
    cost: CostModel,
    pcie: Link,
    ssd_link: Link,
    hbm: MemoryPool,
    ddr: MemoryPool,
    ssd: MemoryPool,
    compute: StreamId,
    copy: StreamId,
    gpu_resource: ResourceId,
    pcie_resource: ResourceId,
    /// Total bytes moved onto the GPU from off-device tiers (DDR/SSD) —
    /// the traffic a smaller expert representation shrinks.
    offload_traffic: u64,
}

impl Machine {
    /// Builds the machine and its two streams.
    pub fn new(config: MachineConfig) -> Self {
        let mut engine = SimEngine::new();
        let gpu_resource = engine.add_resource("gpu");
        let pcie_resource = engine.add_resource("pcie-dma");
        let compute = engine.add_stream("compute", gpu_resource);
        let copy = engine.add_stream("copy", pcie_resource);
        Machine {
            engine,
            cost: config.cost,
            pcie: config.pcie,
            ssd_link: config.ssd_link,
            hbm: MemoryPool::new(Tier::Hbm, config.hbm_capacity),
            ddr: MemoryPool::new(Tier::Ddr, config.ddr_capacity),
            ssd: MemoryPool::new(Tier::Ssd, config.ssd_capacity),
            compute,
            copy,
            gpu_resource,
            pcie_resource,
            offload_traffic: 0,
        }
    }

    /// The kernel cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The compute stream (GPU kernels).
    pub fn compute_stream(&self) -> StreamId {
        self.compute
    }

    /// The copy stream (host→device DMA).
    pub fn copy_stream(&self) -> StreamId {
        self.copy
    }

    /// Memory pool for `tier`.
    pub fn pool(&self, tier: Tier) -> &MemoryPool {
        match tier {
            Tier::Hbm => &self.hbm,
            Tier::Ddr => &self.ddr,
            Tier::Ssd => &self.ssd,
        }
    }

    /// Mutable memory pool for `tier`.
    pub fn pool_mut(&mut self, tier: Tier) -> &mut MemoryPool {
        match tier {
            Tier::Hbm => &mut self.hbm,
            Tier::Ddr => &mut self.ddr,
            Tier::Ssd => &mut self.ssd,
        }
    }

    /// Launches a kernel priced by the cost model on the compute stream.
    pub fn launch_kernel(
        &mut self,
        label: &str,
        flops: f64,
        hbm_bytes: u64,
        waits: &[EventId],
    ) -> EventId {
        let dur = self.cost.kernel_time(flops, hbm_bytes);
        self.engine.submit(self.compute, label, dur, waits)
    }

    /// Submits a fixed-duration op on the compute stream (gate evaluation,
    /// sync points).
    pub fn compute_op(&mut self, label: &str, duration: SimDuration, waits: &[EventId]) -> EventId {
        self.engine.submit(self.compute, label, duration, waits)
    }

    /// Enqueues a host→device transfer of `bytes` from `source` on the copy
    /// stream, returning its completion event.
    ///
    /// Transfers from [`Tier::Ddr`] ride the PCIe link; transfers from
    /// [`Tier::Ssd`] ride the SSD path. A transfer "from" HBM is a
    /// device-local no-op costing only the sync overhead (used when an
    /// expert is cache-resident).
    pub fn copy_to_gpu(
        &mut self,
        label: &str,
        bytes: u64,
        source: Tier,
        waits: &[EventId],
    ) -> EventId {
        self.copy_many_to_gpu(1, bytes, source, waits, |_| label.to_string())
    }

    /// Enqueues `count` equal host→device transfers of `bytes` each from
    /// `source`, all waiting on `waits`, as one copy-stream submission
    /// ([`SimEngine::submit_run`]): the stream tail, PCIe busy time,
    /// offload traffic and completion time are those of `count`
    /// [`Machine::copy_to_gpu`] calls, and a traced run records one span
    /// per transfer, labelled `label(i)`. `count == 0` is a zero-length
    /// barrier on the copy stream.
    pub fn copy_many_to_gpu(
        &mut self,
        count: usize,
        bytes: u64,
        source: Tier,
        waits: &[EventId],
        label: impl Fn(usize) -> String,
    ) -> EventId {
        if count == 0 {
            return self.engine.barrier(self.copy, waits);
        }
        let each = self.transfer_time(bytes, source);
        if source != Tier::Hbm {
            self.offload_traffic += count as u64 * bytes;
        }
        self.engine.submit_run(self.copy, count, each, waits, label)
    }

    /// Total bytes copied to the GPU from off-device tiers so far (cache
    /// hits — device-local "copies" from HBM — cost nothing here).
    pub fn offload_traffic_bytes(&self) -> u64 {
        self.offload_traffic
    }

    /// Duration a [`Machine::copy_to_gpu`] of `bytes` from `source` would
    /// take — the same law the copy path applies, exposed so replayers can
    /// compute a schedule's times without submitting its ops.
    pub fn transfer_time(&self, bytes: u64, source: Tier) -> SimDuration {
        match source {
            Tier::Ddr => self.pcie.transfer_time(bytes),
            Tier::Ssd => self.ssd_link.transfer_time(bytes),
            Tier::Hbm => self.cost.sync_overhead,
        }
    }

    /// Applies the net machine-state effect of a schedule fragment whose op
    /// times were computed externally (compiled decode-plan replay): both
    /// stream tails fast-forward, resource busy accrues, and `offload`
    /// bytes count toward offload traffic. The fragment's events are never
    /// materialized, so callers must not wait on its ops afterwards.
    pub fn apply_replay(
        &mut self,
        compute_tail: SimTime,
        copy_tail: SimTime,
        gpu_busy: SimDuration,
        pcie_busy: SimDuration,
        offload: u64,
    ) {
        self.engine.fast_forward(self.compute, compute_tail, gpu_busy);
        self.engine.fast_forward(self.copy, copy_tail, pcie_busy);
        self.offload_traffic += offload;
    }

    /// Completion time of an event.
    pub fn event_time(&self, event: EventId) -> SimTime {
        self.engine.event_time(event)
    }

    /// Latest instant across both streams.
    pub fn horizon(&self) -> SimTime {
        self.engine.horizon()
    }

    /// Busy time on the GPU (compute utilisation numerator).
    pub fn gpu_busy(&self) -> SimDuration {
        self.engine.resource_busy(self.gpu_resource)
    }

    /// Busy time on the PCIe DMA engine.
    pub fn pcie_busy(&self) -> SimDuration {
        self.engine.resource_busy(self.pcie_resource)
    }

    /// Recorded trace spans.
    pub fn trace(&self) -> &[TraceSpan] {
        self.engine.trace()
    }

    /// Enables/disables trace retention.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.engine.set_trace_enabled(enabled);
    }

    /// Whether trace spans are currently retained (hot paths use this to
    /// skip building per-op label strings nobody will read).
    pub fn trace_enabled(&self) -> bool {
        self.engine.trace_enabled()
    }

    /// Clears recorded trace spans.
    pub fn clear_trace(&mut self) {
        self.engine.clear_trace();
    }

    /// Direct access to the underlying engine for advanced schedules.
    pub fn engine_mut(&mut self) -> &mut SimEngine {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_then_dependent_exec_serializes() {
        let mut m = Machine::new(MachineConfig::a100_like());
        let bytes = 2 * 768 * 3072 * 4; // one Switch-Base expert, fp32
        let fetch = m.copy_to_gpu("expert", bytes, Tier::Ddr, &[]);
        let exec = m.launch_kernel("ffn", 0.0, bytes, &[fetch]);
        let fetch_t = m.event_time(fetch);
        let exec_t = m.event_time(exec);
        assert!(exec_t > fetch_t);
        // Exec duration ≈ membound time.
        let dur = exec_t - fetch_t;
        assert_eq!(dur, m.cost().membound_time(bytes));
    }

    #[test]
    fn independent_fetch_overlaps_compute() {
        let mut m = Machine::new(MachineConfig::a100_like());
        let bytes = 2 * 768 * 3072 * 4;
        let _fetch_next = m.copy_to_gpu("next-expert", bytes, Tier::Ddr, &[]);
        let exec = m.launch_kernel("ffn", 0.0, bytes, &[]);
        // Compute finished without waiting for the fetch.
        assert_eq!(m.event_time(exec), SimTime::ZERO + m.cost().membound_time(bytes));
    }

    #[test]
    fn ssd_fetch_is_much_slower_than_ddr() {
        let mut m = Machine::new(MachineConfig::a100_like());
        let bytes = 18_874_368;
        let ddr = m.copy_to_gpu("a", bytes, Tier::Ddr, &[]);
        let ddr_t = m.event_time(ddr);
        let mut m2 = Machine::new(MachineConfig::a100_like());
        let ssd = m2.copy_to_gpu("a", bytes, Tier::Ssd, &[]);
        let ssd_t = m2.event_time(ssd);
        assert!(ssd_t.as_nanos() > 8 * ddr_t.as_nanos());
    }

    #[test]
    fn hbm_pool_is_80_gb() {
        let m = Machine::new(MachineConfig::a100_like());
        assert_eq!(m.pool(Tier::Hbm).capacity(), 80 * (1 << 30));
    }

    #[test]
    fn cache_resident_copy_costs_only_sync() {
        let mut m = Machine::new(MachineConfig::a100_like());
        let e = m.copy_to_gpu("hit", 1 << 30, Tier::Hbm, &[]);
        assert_eq!(m.event_time(e) - SimTime::ZERO, m.cost().sync_overhead);
    }

    #[test]
    fn apply_replay_matches_submitted_schedule() {
        // Computing a fetch+exec schedule externally and applying its net
        // effect must leave the machine in the same observable state as
        // submitting the ops.
        let bytes = 18_874_368u64;
        let mut live = Machine::new(MachineConfig::a100_like());
        let fetch = live.copy_to_gpu("expert", bytes, Tier::Ddr, &[]);
        live.launch_kernel("ffn", 0.0, bytes, &[fetch]);

        let mut replayed = Machine::new(MachineConfig::a100_like());
        let copy_end = SimTime::ZERO + replayed.transfer_time(bytes, Tier::Ddr);
        let exec_dur = replayed.cost().kernel_time(0.0, bytes);
        let exec_end = copy_end + exec_dur;
        replayed.apply_replay(
            exec_end,
            copy_end,
            exec_dur,
            replayed.transfer_time(bytes, Tier::Ddr),
            bytes,
        );
        assert_eq!(replayed.horizon(), live.horizon());
        assert_eq!(replayed.gpu_busy(), live.gpu_busy());
        assert_eq!(replayed.pcie_busy(), live.pcie_busy());
        assert_eq!(replayed.offload_traffic_bytes(), live.offload_traffic_bytes());
    }

    #[test]
    fn one_n_copy_submission_matches_n_single_copies() {
        // Healthy PCIe, a degraded link whose per-copy time is not a round
        // number of nanoseconds, the SSD path and device-local HBM copies;
        // n = 0 is the barrier an all-hit fetch submits.
        let degraded = MachineConfig::a100_like().with_pcie_bandwidth(1.37e9);
        let bytes = 18_874_368u64;
        for (config, source) in [
            (MachineConfig::a100_like(), Tier::Ddr),
            (degraded, Tier::Ddr),
            (MachineConfig::a100_like(), Tier::Ssd),
            (MachineConfig::a100_like(), Tier::Hbm),
        ] {
            for n in [0usize, 1, 2, 7] {
                let setup = |m: &mut Machine| {
                    // Earlier work on both streams, and a wait that lands
                    // after the copy stream's tail.
                    m.copy_to_gpu("earlier", 1 << 20, Tier::Ddr, &[]);
                    m.launch_kernel("k", 0.0, 1 << 30, &[])
                };
                let mut single = Machine::new(config.clone());
                let wait = setup(&mut single);
                let copy = single.copy_stream();
                let mut last = None;
                for i in 0..n {
                    last = Some(single.copy_to_gpu(&format!("c{i}"), bytes, source, &[wait]));
                }
                let last = last.unwrap_or_else(|| single.engine_mut().barrier(copy, &[wait]));
                let mut many = Machine::new(config.clone());
                let wait = setup(&mut many);
                let done = many.copy_many_to_gpu(n, bytes, source, &[wait], |i| format!("c{i}"));
                let case = format!("{source:?} n={n}");
                assert_eq!(many.event_time(done), single.event_time(last), "{case}");
                assert_eq!(
                    many.engine_mut().stream_tail(copy),
                    single.engine_mut().stream_tail(copy),
                    "{case}"
                );
                assert_eq!(many.pcie_busy(), single.pcie_busy(), "{case}");
                assert_eq!(many.offload_traffic_bytes(), single.offload_traffic_bytes(), "{case}");
                assert_eq!(many.horizon(), single.horizon(), "{case}");
                // One span per transfer (the barrier's when n = 0).
                assert_eq!(many.trace(), single.trace(), "{case}");
            }
        }
    }

    #[test]
    fn offload_traffic_counts_ddr_and_ssd_but_not_hbm() {
        let mut m = Machine::new(MachineConfig::a100_like());
        assert_eq!(m.offload_traffic_bytes(), 0);
        m.copy_to_gpu("a", 100, Tier::Ddr, &[]);
        m.copy_to_gpu("b", 30, Tier::Ssd, &[]);
        m.copy_to_gpu("hit", 1 << 20, Tier::Hbm, &[]);
        assert_eq!(m.offload_traffic_bytes(), 130);
    }
}
