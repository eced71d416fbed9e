//! Calibration constants for the simulated GPU, defaulted to a Summit-like
//! NVIDIA V100 as used in the paper's evaluation.
//!
//! The absolute values matter less than the *ratios* between them — kernel
//! launch overhead vs. kernel work is what drives the fusion and graph
//! results (paper Figs. 8 and 9); DMA bandwidth vs. network bandwidth
//! drives the host-staging vs. GPU-aware trade-off (Fig. 7).

use gaat_sim::SimDuration;

/// Timing model of one GPU and its host link.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuTimingModel {
    /// Effective HBM bandwidth in bytes/second (V100: ~900 GB/s).
    pub mem_bw: f64,
    /// Device-side dispatch latency added to each kernel launched from a
    /// stream (queue processing, grid setup).
    pub kernel_dispatch: SimDuration,
    /// Minimum kernel execution time (even an empty kernel occupies the
    /// device briefly).
    pub kernel_min: SimDuration,
    /// CPU-side cost of launching one kernel or memcpy (cudaLaunchKernel /
    /// cudaMemcpyAsync call overhead) — charged to the calling PE.
    pub cpu_launch: SimDuration,
    /// CPU-side cost of lightweight stream operations (event record/wait,
    /// callbacks/markers).
    pub cpu_light: SimDuration,
    /// CPU-side cost of launching a whole captured graph.
    pub graph_launch_cpu: SimDuration,
    /// Additional CPU-side graph launch cost per node of the graph (the
    /// driver still walks the topology on submit).
    pub graph_launch_cpu_per_node: SimDuration,
    /// CPU-side cost of updating one node's parameters in a captured
    /// graph (cudaGraphExecKernelNodeSetParams).
    pub graph_node_update_cpu: SimDuration,
    /// Device-side dispatch latency per node when executed from a graph
    /// (much smaller than `kernel_dispatch`: dependencies are pre-resolved).
    pub graph_node_dispatch: SimDuration,
    /// Host<->device DMA bandwidth in bytes/second (NVLink on Summit:
    /// ~45 GB/s effective per direction).
    pub dma_bw: f64,
    /// Per-operation DMA latency (driver + engine setup).
    pub dma_latency: SimDuration,
    /// Maximum kernels resident per priority class on the compute engine.
    pub compute_slots: usize,
    /// Device memory capacity in bytes (V100 on Summit: 16 GB HBM2).
    pub mem_capacity: u64,
}

impl Default for GpuTimingModel {
    fn default() -> Self {
        GpuTimingModel {
            mem_bw: 900.0e9,
            kernel_dispatch: SimDuration::from_ns(2_500),
            kernel_min: SimDuration::from_ns(1_500),
            cpu_launch: SimDuration::from_ns(4_500),
            cpu_light: SimDuration::from_ns(500),
            graph_launch_cpu: SimDuration::from_ns(8_000),
            graph_launch_cpu_per_node: SimDuration::from_ns(450),
            graph_node_update_cpu: SimDuration::from_ns(1_800),
            graph_node_dispatch: SimDuration::from_ns(800),
            dma_bw: 45.0e9,
            dma_latency: SimDuration::from_ns(9_000),
            compute_slots: 32,
            mem_capacity: 16 << 30,
        }
    }
}

impl GpuTimingModel {
    /// Dedicated-device execution time of a memory-bound kernel that moves
    /// `bytes` of HBM traffic.
    pub fn membound_work(&self, bytes: u64) -> SimDuration {
        let ns = bytes as f64 / self.mem_bw * 1e9;
        SimDuration::from_ns(ns.round() as u64).max(self.kernel_min)
    }

    /// Transfer time of a DMA copy of `bytes` (excluding queueing).
    pub fn dma_time(&self, bytes: u64) -> SimDuration {
        let ns = bytes as f64 / self.dma_bw * 1e9;
        self.dma_latency + SimDuration::from_ns(ns.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membound_work_scales_linearly() {
        let t = GpuTimingModel::default();
        let ten_mb = t.membound_work(10 << 20);
        let twenty_mb = t.membound_work(20 << 20);
        // 10 MiB at 900 GB/s ≈ 11.65 us
        assert!((11_000..12_500).contains(&ten_mb.as_ns()), "{ten_mb}");
        assert!(twenty_mb.as_ns() >= 2 * ten_mb.as_ns() - 2);
    }

    #[test]
    fn membound_work_has_floor() {
        let t = GpuTimingModel::default();
        assert_eq!(t.membound_work(8), t.kernel_min);
    }

    #[test]
    fn dma_time_includes_latency() {
        let t = GpuTimingModel::default();
        assert_eq!(t.dma_time(0), t.dma_latency);
        let nine_mb = t.dma_time(9 << 20);
        // 9 MiB / 45 GB/s ≈ 210 us, plus 9 us latency
        assert!((200_000..240_000).contains(&nine_mb.as_ns()), "{nine_mb}");
    }
}
