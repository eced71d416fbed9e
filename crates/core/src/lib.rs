//! # gaat-rt — GPU-aware asynchronous task runtime
//!
//! The paper's primary contribution, implemented as a library: a
//! message-driven task runtime (the Charm++ analogue) where
//! overdecomposed *chares* execute entry methods on per-PE schedulers,
//! GPU work completes asynchronously (HAPI), and GPU-aware communication
//! flows through the Channel API on top of a UCX-like protocol layer —
//! all over a deterministic discrete-event machine model.
//!
//! Key pieces:
//!
//! - [`Machine`] / [`Simulation`]: the simulated cluster and its driver.
//! - [`Chare`] + [`Ctx`]: entry methods charge simulated CPU time for
//!   scheduling, sends, and kernel launches — making overdecomposition
//!   overheads and CPU-side launch costs first-class, as the paper's
//!   strong-scaling analysis requires. Every chare derives `Clone`,
//!   which is how cloning a [`Simulation`] forks the world mid-flight.
//! - [`channel`]: the Channel API (two-sided GPU-aware transfers with
//!   callback completion).
//! - [`gpu_msg`]: the older GPU Messaging API with its post-entry-method
//!   round trip, kept as a comparison point.
//! - [`sdag`]: SDAG-style message buffering with reference numbers.
//! - [`lb`]: the closed-loop load-balancing planner over measured chare
//!   loads — the runtime adaptivity that overdecomposition enables.
//! - [`recovery`]: checkpoints (clones of the chare), rollback after a
//!   PE failure, and the periodic balancer that migrates through it.
//!
//! # Example: a chare that offloads to the GPU and detects completion
//! asynchronously
//!
//! ```
//! use gaat_rt::{
//!     Callback, Chare, Ctx, EntryId, Envelope, KernelSpec, MachineConfig, Op, Simulation,
//!     StreamId,
//! };
//! use gaat_sim::SimDuration;
//!
//! const E_GO: EntryId = EntryId(0);
//! const E_DONE: EntryId = EntryId(1);
//!
//! #[derive(Clone)]
//! struct Offloader {
//!     stream: StreamId,
//!     finished: bool,
//! }
//!
//! impl Chare for Offloader {
//!     fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
//!         match env.entry {
//!             E_GO => {
//!                 // Launch a kernel; the HAPI callback fires E_DONE when
//!                 // it completes — without blocking the PE's scheduler.
//!                 ctx.launch(
//!                     self.stream,
//!                     Op::kernel(KernelSpec::phantom("work", SimDuration::from_us(25))),
//!                 );
//!                 ctx.hapi(self.stream, Callback::to(ctx.me(), E_DONE));
//!             }
//!             E_DONE => self.finished = true,
//!             _ => unreachable!(),
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(MachineConfig::validation(1, 1));
//! let stream = sim.machine.devices[0].create_stream(0);
//! let c = sim.machine.create_chare(0, Box::new(Offloader { stream, finished: false }));
//! {
//!     let Simulation { sim, machine, .. } = &mut sim;
//!     machine.inject(sim, c, Envelope::empty(E_GO));
//! }
//! sim.run();
//! assert!(sim.machine.chare_as::<Offloader>(c).finished);
//! assert!(sim.now().as_ns() > 25_000);
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod config;
pub mod gpu_msg;
pub mod lb;
pub mod machine;
pub mod msg;
pub mod pe;
pub mod recovery;
pub mod sdag;

pub use channel::{create_channel, ChannelEnd};
pub use config::{ConfigError, LbConfig, LbPolicy, MachineConfig, RtCosts};
pub use lb::{periodic_plan, LbPlan, LbSensors};
pub use machine::{Chare, ChareClone, Ctx, Machine, MachineStats, Simulation};
pub use msg::{Callback, ChareId, EntryId, Envelope, MsgPriority};
pub use pe::{Pe, PeStats};
pub use recovery::LbStats;
pub use sdag::WhenSet;

// Re-exports for applications.
pub use gaat_gpu::{
    BufRange, BufferId, DeviceId, GraphBuilder, GraphId, KernelSpec, Op, Space, StreamId,
};
pub use gaat_sim::{RunOutcome, SimDuration, SimTime};
pub use gaat_ucx::MemLoc;
