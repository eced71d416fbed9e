//! OSU-microbenchmark-style measurements of the communication stack:
//! one-way latency and effective bandwidth across message sizes for host
//! and device memory, annotated with the protocol UCX chose. This is the
//! "protocol landscape" behind the paper's Fig. 7 behaviour — the eager/
//! rendezvous boundary, the GPUDirect window, and the pipelined-staging
//! cliff are all directly visible here.

use gaat_gpu::{BufRange, Space};
use gaat_rt::{Callback, Chare, Ctx, EntryId, Envelope, MachineConfig, MemLoc, Simulation};
use gaat_sim::SimTime;

const E_GO: EntryId = EntryId(0);
const E_RECVD: EntryId = EntryId(1);

/// One measured point of the protocol landscape.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ProtocolPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// Buffer space ("host" / "device").
    pub space: &'static str,
    /// Protocol the communication layer selected.
    pub protocol: &'static str,
    /// One-way latency in microseconds (posted receive, warm path).
    pub latency_us: f64,
    /// Effective bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

/// Receiver chare: posts a receive; the completion time is the one-way
/// latency.
#[derive(Clone)]
struct OneWay {
    peer_pe: usize,
    loc: MemLoc,
    tag_seq: u64,
    done_at: Option<SimTime>,
}

impl Chare for OneWay {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_GO => {
                let me = ctx.me();
                ctx.ucx_irecv(
                    self.peer_pe,
                    gaat_ucx::Tag(self.tag_seq),
                    self.loc,
                    Callback::to(me, E_RECVD),
                );
            }
            E_RECVD => self.done_at = Some(ctx.start_time()),
            _ => unreachable!(),
        }
    }
}

/// Sender chare: fires one message.
#[derive(Clone)]
struct Shooter {
    peer_pe: usize,
    loc: MemLoc,
    tag_seq: u64,
}

impl Chare for Shooter {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        assert_eq!(env.entry, E_GO);
        ctx.ucx_isend(
            self.peer_pe,
            gaat_ucx::Tag(self.tag_seq),
            self.loc,
            Callback::Ignore,
        );
    }
}

/// Measure one-way latency for one size/space across two nodes.
pub fn measure(bytes: u64, space: Space) -> ProtocolPoint {
    let mut mc = MachineConfig::summit(2);
    mc.pes_per_node = 1;
    mc.net.jitter = 0.0;
    let mut sim = Simulation::new(mc);
    let elems = (bytes / 8).max(1) as usize;
    let sbuf = sim.machine.devices[0].mem.alloc_phantom(space, elems);
    let rbuf = sim.machine.devices[1].mem.alloc_phantom(space, elems);
    let sloc = MemLoc {
        device: gaat_gpu::DeviceId(0),
        range: BufRange::whole(sbuf, elems),
    };
    let rloc = MemLoc {
        device: gaat_gpu::DeviceId(1),
        range: BufRange::whole(rbuf, elems),
    };
    let recv = sim.machine.create_chare(
        1,
        Box::new(OneWay {
            peer_pe: 0,
            loc: rloc,
            tag_seq: 1,
            done_at: None,
        }),
    );
    let send = sim.machine.create_chare(
        0,
        Box::new(Shooter {
            peer_pe: 1,
            loc: sloc,
            tag_seq: 1,
        }),
    );
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.inject(sim, recv, Envelope::empty(E_GO));
        machine.inject(sim, send, Envelope::empty(E_GO));
    }
    sim.run();
    let done = sim
        .machine
        .chare_as::<OneWay>(recv)
        .done_at
        .expect("message delivered");
    let s = sim.machine.ucx.stats();
    let protocol = if s.eager > 0 {
        "eager"
    } else if s.rendezvous > 0 {
        "rendezvous"
    } else if s.pipelined > 0 {
        "pipelined-staging"
    } else {
        "gpudirect"
    };
    let latency_us = done.as_micros_f64();
    ProtocolPoint {
        bytes,
        space: match space {
            Space::Host => "host",
            Space::Device => "device",
        },
        protocol,
        latency_us,
        bandwidth_gbs: bytes as f64 / (latency_us * 1e-6) / 1e9,
    }
}

/// The full landscape: powers of two from 1 KiB to `max_bytes`, both
/// spaces.
pub fn landscape(max_bytes: u64) -> Vec<ProtocolPoint> {
    let mut out = Vec::new();
    for space in [Space::Host, Space::Device] {
        let mut bytes = 1024u64;
        while bytes <= max_bytes {
            out.push(measure(bytes, space));
            bytes *= 2;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_monotone_in_size_per_space() {
        for space in [Space::Host, Space::Device] {
            let mut last = 0.0;
            let mut bytes = 1024;
            while bytes <= 8 << 20 {
                let p = measure(bytes, space);
                assert!(
                    p.latency_us >= last * 0.999,
                    "{space:?} {bytes}: latency {} dropped below {last}",
                    p.latency_us
                );
                last = p.latency_us;
                bytes *= 4;
            }
        }
    }

    #[test]
    fn protocols_switch_at_the_configured_thresholds() {
        assert_eq!(measure(16 << 10, Space::Host).protocol, "eager");
        assert_eq!(measure(256 << 10, Space::Host).protocol, "rendezvous");
        assert_eq!(measure(96 << 10, Space::Device).protocol, "gpudirect");
        assert_eq!(
            measure(9 << 20, Space::Device).protocol,
            "pipelined-staging"
        );
    }

    #[test]
    fn small_device_messages_beat_explicit_staging_times() {
        // GPUDirect latency for 96 KiB must be far below the DMA-latency
        // cost an application-level staging path would pay twice.
        let p = measure(96 << 10, Space::Device);
        let dma = gaat_gpu::GpuTimingModel::default().dma_time(96 << 10);
        assert!(p.latency_us * 1000.0 < 3.0 * dma.as_ns() as f64);
    }

    #[test]
    fn pipelined_bandwidth_sits_below_host_rendezvous() {
        // The Fig. 7a mechanism in one assertion: for the same large
        // size, device buffers (pipelined staging) achieve worse
        // effective bandwidth than host buffers (plain rendezvous).
        let host = measure(8 << 20, Space::Host);
        let device = measure(8 << 20, Space::Device);
        assert!(
            device.bandwidth_gbs < host.bandwidth_gbs * 0.8,
            "pipelined {} GB/s should sit well below host {} GB/s",
            device.bandwidth_gbs,
            host.bandwidth_gbs
        );
    }
}
