//! Wiring a [`Device`] into a discrete-event loop.
//!
//! The embedding world implements [`GpuHost`]; [`pump`] advances a device,
//! routes completion tags to the host, and keeps exactly enough wakeup
//! events scheduled for the device to make progress. `pump` must be called
//! after any direct mutation of a device (enqueue, graph launch, etc.).

use gaat_sim::{Sim, SimTime};

use crate::device::{Device, DeviceId};
use crate::op::CompletionTag;

/// World-side requirements for hosting simulated GPUs.
pub trait GpuHost: Sized + 'static {
    /// Access a device by id.
    fn device_mut(&mut self, id: DeviceId) -> &mut Device;

    /// Called for every completion tag fired by a device. The handler may
    /// enqueue more GPU work (the pump loops until quiescent) and schedule
    /// simulation events.
    fn on_gpu_complete(&mut self, sim: &mut Sim<Self>, dev: DeviceId, tag: CompletionTag);
}

/// Advance the device at the current simulation time, deliver completions,
/// and schedule the next wakeup.
pub fn pump<W: GpuHost>(w: &mut W, sim: &mut Sim<W>, dev: DeviceId) {
    loop {
        let now = sim.now();
        let d = w.device_mut(dev);
        let wake = d.advance(now);
        let completions = d.drain_completions();
        if completions.is_empty() {
            d.recycle_completions(completions);
            schedule_wakeup(w, sim, dev, wake);
            return;
        }
        for &tag in &completions {
            w.on_gpu_complete(sim, dev, tag);
        }
        // Hand the buffer back so the next completion does not allocate.
        w.device_mut(dev).recycle_completions(completions);
        // Completion handlers may have enqueued more work: loop.
    }
}

fn schedule_wakeup<W: GpuHost>(w: &mut W, sim: &mut Sim<W>, dev: DeviceId, wake: Option<SimTime>) {
    let Some(at) = wake else { return };
    let d = w.device_mut(dev);
    // Deduplicate: only schedule if nothing is pending at or before `at`.
    if let Some(sched) = d.scheduled_wakeup {
        if sched <= at && sched >= sim.now() {
            return;
        }
    }
    d.scheduled_wakeup = Some(at);
    sim.at(at, wakeup::<W>, dev.0 as u64);
}

fn wakeup<W: GpuHost>(w: &mut W, sim: &mut Sim<W>, dev: u64) {
    let dev = DeviceId(dev as usize);
    let d = w.device_mut(dev);
    if d.scheduled_wakeup == Some(sim.now()) {
        d.scheduled_wakeup = None;
    }
    pump(w, sim, dev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{KernelSpec, Op};
    use crate::timing::GpuTimingModel;
    use gaat_sim::SimDuration;

    struct World {
        dev: Device,
        fired: Vec<(u64, SimTime)>,
    }

    impl GpuHost for World {
        fn device_mut(&mut self, _id: DeviceId) -> &mut Device {
            &mut self.dev
        }
        fn on_gpu_complete(&mut self, sim: &mut Sim<Self>, _dev: DeviceId, tag: CompletionTag) {
            self.fired.push((tag.0, sim.now()));
        }
    }

    #[test]
    fn pump_drives_device_to_completion() {
        let mut w = World {
            dev: Device::new(DeviceId(0), GpuTimingModel::default()),
            fired: vec![],
        };
        let s = w.dev.create_stream(0);
        for i in 0..3 {
            w.dev.enqueue(
                s,
                Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(4)))
                    .with_tag(CompletionTag(i)),
            );
        }
        let mut sim: Sim<World> = Sim::new();
        sim.soon(
            |w: &mut World, sim: &mut Sim<World>, _| pump(w, sim, DeviceId(0)),
            0,
        );
        sim.run(&mut w);
        assert_eq!(w.fired.len(), 3);
        let per = SimDuration::from_us(4) + w.dev.timing.kernel_dispatch;
        for (i, (tag, at)) in w.fired.iter().enumerate() {
            assert_eq!(*tag, i as u64);
            assert_eq!(at.as_ns(), per.as_ns() * (i as u64 + 1));
        }
    }

    #[test]
    fn completion_handler_can_chain_work() {
        struct Chain {
            dev: Device,
            stream: crate::op::StreamId,
            hops: u64,
        }
        impl GpuHost for Chain {
            fn device_mut(&mut self, _id: DeviceId) -> &mut Device {
                &mut self.dev
            }
            fn on_gpu_complete(&mut self, _sim: &mut Sim<Self>, _d: DeviceId, tag: CompletionTag) {
                self.hops += 1;
                if tag.0 < 4 {
                    let s = self.stream;
                    self.dev.enqueue(
                        s,
                        Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(1)))
                            .with_tag(CompletionTag(tag.0 + 1)),
                    );
                    // No explicit pump needed: the outer pump loop continues.
                }
            }
        }
        let mut dev = Device::new(DeviceId(0), GpuTimingModel::default());
        let stream = dev.create_stream(0);
        dev.enqueue(
            stream,
            Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(1)))
                .with_tag(CompletionTag(0)),
        );
        let mut w = Chain {
            dev,
            stream,
            hops: 0,
        };
        let mut sim: Sim<Chain> = Sim::new();
        sim.soon(
            |w: &mut Chain, sim: &mut Sim<Chain>, _| pump(w, sim, DeviceId(0)),
            0,
        );
        sim.run(&mut w);
        assert_eq!(w.hops, 5);
    }

    #[test]
    fn wakeups_are_deduplicated() {
        let mut w = World {
            dev: Device::new(DeviceId(0), GpuTimingModel::default()),
            fired: vec![],
        };
        let s = w.dev.create_stream(0);
        w.dev.enqueue(
            s,
            Op::kernel(KernelSpec::phantom("k", SimDuration::from_ms(1)))
                .with_tag(CompletionTag(0)),
        );
        let mut sim: Sim<World> = Sim::new();
        // Pump many times at t=0; only one wakeup should be scheduled.
        sim.soon(
            |w: &mut World, sim: &mut Sim<World>, _| {
                for _ in 0..10 {
                    pump(w, sim, DeviceId(0));
                }
            },
            0,
        );
        sim.run(&mut w);
        assert_eq!(w.fired.len(), 1);
        // 1 initial event + 1 wakeup = 2 (plus nothing else)
        assert_eq!(sim.events_executed(), 2);
    }
}
