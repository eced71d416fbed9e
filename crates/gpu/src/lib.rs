//! # gaat-gpu — simulated GPU device
//!
//! A discrete-event model of a CUDA-capable GPU with the semantics the
//! paper's techniques rely on:
//!
//! - **Streams** with in-order execution and priority classes; work in
//!   different streams runs concurrently.
//! - **Events** for cross-stream dependencies (`record` / `wait`).
//! - A **compute engine** that processor-shares device throughput within
//!   the highest resident priority class (high-priority packing kernels
//!   displace low-priority update kernels, as in §III-A of the paper).
//! - Two **DMA engines** (device-to-host and host-to-device) that
//!   serialize transfers per direction and overlap with compute.
//! - **Captured graphs** (the CUDA Graphs analogue) whose nodes pay a
//!   reduced dispatch cost and whose launch costs one CPU call.
//! - **Markers** with completion tags — the primitive underneath
//!   HAPI-style asynchronous completion detection.
//!
//! Buffers can hold real `f64` data (validation mode) or be phantom sizes
//! (scale mode); timing is identical either way.
//!
//! # Example: two streams synchronized by an event
//!
//! ```
//! use gaat_gpu::{Device, DeviceId, GpuTimingModel, KernelSpec, Op};
//! use gaat_sim::{SimDuration, SimTime};
//!
//! let mut d = Device::new(DeviceId(0), GpuTimingModel::default());
//! let producer = d.create_stream(0);
//! let consumer = d.create_stream(0);
//! let ev = d.create_event();
//!
//! d.enqueue(producer, Op::kernel(KernelSpec::phantom("produce", SimDuration::from_us(10))));
//! d.enqueue(producer, Op::record(ev));
//! d.enqueue(consumer, Op::wait(ev));
//! d.enqueue(consumer, Op::kernel(KernelSpec::phantom("consume", SimDuration::from_us(5))));
//!
//! // Drive the device manually (the runtime normally does this).
//! let mut now = SimTime::ZERO;
//! while let Some(next) = d.advance(now) {
//!     now = next;
//! }
//! // consume ran strictly after produce: 10us + 5us + 2 dispatches
//! let dispatch = d.timing.kernel_dispatch.as_ns();
//! assert_eq!(now.as_ns(), 15_000 + 2 * dispatch);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod engines;
pub mod graph;
pub mod host;
pub mod memory;
pub mod op;
pub mod timing;

pub use device::{Device, DeviceId, DeviceStats};
pub use engines::PRIORITY_CLASSES;
pub use graph::{GraphBuilder, GraphSpec, NodeIndex};
pub use host::{pump, GpuHost};
pub use memory::{BufRange, Buffer, BufferId, MemoryPool, Space};
pub use op::{
    CompletionTag, CudaEventId, GraphId, KernelFunc, KernelSpec, Op, OpKind, StreamId, Work,
};
pub use timing::GpuTimingModel;
