//! Operations that can be enqueued on a simulated GPU stream.

use std::fmt;
use std::sync::Arc;

use gaat_sim::SimDuration;

use crate::memory::{BufRange, MemoryPool};

/// Opaque completion token routed back to the embedder when the operation
/// carrying it finishes. The task runtime maps tags to callbacks — this is
/// the mechanism behind HAPI-style asynchronous completion detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompletionTag(pub u64);

/// Handle to a stream of a particular device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Handle to a CUDA-event-like synchronization object of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CudaEventId(pub u32);

/// Handle to a captured executable graph of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub u32);

/// Functional side effect of a kernel, applied to device memory at the
/// kernel's completion instant. `None` in phantom (timing-only) mode.
pub type KernelFunc = Arc<dyn Fn(&mut MemoryPool) + Send + Sync>;

/// Description of a kernel launch: a name for tracing, the
/// dedicated-device execution time, and an optional functional effect.
#[derive(Clone)]
pub struct KernelSpec {
    /// Short identifier used in traces and stats (e.g. `"update"`).
    pub name: &'static str,
    /// Execution time if the kernel had the whole device to itself; the
    /// compute engine stretches this under processor sharing.
    pub work: SimDuration,
    /// Optional functional effect on memory.
    pub func: Option<KernelFunc>,
}

impl fmt::Debug for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelSpec")
            .field("name", &self.name)
            .field("work", &self.work)
            .field("func", &self.func.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl KernelSpec {
    /// Timing-only kernel.
    pub fn phantom(name: &'static str, work: SimDuration) -> Self {
        KernelSpec {
            name,
            work,
            func: None,
        }
    }

    /// Kernel with a functional effect.
    pub fn with_func(
        name: &'static str,
        work: SimDuration,
        func: impl Fn(&mut MemoryPool) + Send + Sync + 'static,
    ) -> Self {
        KernelSpec {
            name,
            work,
            func: Some(Arc::new(func)),
        }
    }
}

/// Work for one of the device's engines: a kernel for the compute
/// engine or a copy for the DMA engine of its direction. A stream op and a
/// graph node carry the same work; they differ only in how it is
/// dispatched and what its completion releases.
#[derive(Debug, Clone)]
pub enum Work {
    /// Compute kernel.
    Kernel(KernelSpec),
    /// Device-to-host DMA copy.
    MemcpyD2H {
        /// Source range in device memory.
        src: BufRange,
        /// Destination range in pinned host memory.
        dst: BufRange,
    },
    /// Host-to-device DMA copy.
    MemcpyH2D {
        /// Source range in pinned host memory.
        src: BufRange,
        /// Destination range in device memory.
        dst: BufRange,
    },
}

/// What an enqueued operation does.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// A kernel or copy run on one of the device's engines.
    Work(Work),
    /// Record a CUDA event: completes instantly when reached at the head of
    /// the stream, releasing any `WaitEvent` on it.
    EventRecord(CudaEventId),
    /// Block the stream until the given event has been recorded.
    WaitEvent(CudaEventId),
    /// Zero-duration marker; used with a tag for HAPI-style "notify me when
    /// the stream reaches this point".
    Marker,
    /// Launch a captured graph; the stream resumes when the whole graph
    /// instance has executed.
    GraphLaunch(GraphId),
}

/// An operation plus its optional completion tag.
#[derive(Debug, Clone)]
pub struct Op {
    /// The operation.
    pub kind: OpKind,
    /// If set, reported to the embedder when the operation completes.
    pub tag: Option<CompletionTag>,
}

impl Op {
    /// Wrap an [`OpKind`] without a completion tag.
    pub fn new(kind: OpKind) -> Self {
        Op { kind, tag: None }
    }

    /// Kernel launch.
    pub fn kernel(spec: KernelSpec) -> Self {
        Op::new(OpKind::Work(Work::Kernel(spec)))
    }

    /// Device-to-host copy.
    pub fn d2h(src: BufRange, dst: BufRange) -> Self {
        Op::new(OpKind::Work(Work::MemcpyD2H { src, dst }))
    }

    /// Host-to-device copy.
    pub fn h2d(src: BufRange, dst: BufRange) -> Self {
        Op::new(OpKind::Work(Work::MemcpyH2D { src, dst }))
    }

    /// Event record.
    pub fn record(ev: CudaEventId) -> Self {
        Op::new(OpKind::EventRecord(ev))
    }

    /// Event wait.
    pub fn wait(ev: CudaEventId) -> Self {
        Op::new(OpKind::WaitEvent(ev))
    }

    /// Completion marker.
    pub fn marker() -> Self {
        Op::new(OpKind::Marker)
    }

    /// Graph launch.
    pub fn graph(g: GraphId) -> Self {
        Op::new(OpKind::GraphLaunch(g))
    }

    /// Attach a completion tag.
    pub fn with_tag(mut self, tag: CompletionTag) -> Self {
        self.tag = Some(tag);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let op = Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(3)))
            .with_tag(CompletionTag(7));
        assert_eq!(op.tag, Some(CompletionTag(7)));
        match op.kind {
            OpKind::Work(Work::Kernel(spec)) => {
                assert_eq!(spec.name, "k");
                assert_eq!(spec.work.as_ns(), 3_000);
                assert!(spec.func.is_none());
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn kernel_func_runs_on_pool() {
        use crate::memory::Space;
        let mut mem = MemoryPool::new();
        let b = mem.alloc_real(Space::Device, 4);
        let spec = KernelSpec::with_func("fill", SimDuration::from_us(1), move |m| {
            for x in m.get_mut(b).as_mut_slice().expect("real") {
                *x = 2.0;
            }
        });
        (spec.func.expect("func"))(&mut mem);
        assert!(mem
            .get(b)
            .as_slice()
            .expect("real")
            .iter()
            .all(|&x| x == 2.0));
    }

    #[test]
    fn debug_impl_hides_closure() {
        let spec = KernelSpec::with_func("k", SimDuration::ZERO, |_| {});
        let s = format!("{spec:?}");
        assert!(s.contains("<fn>"));
    }
}
