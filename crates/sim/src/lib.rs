//! # gaat-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the GAAT (GPU-Aware Asynchronous Tasks) stack: a
//! single-threaded, bit-deterministic discrete-event simulator with integer
//! nanosecond time, a splittable RNG, fault plans, span tracing and the
//! generational [`Slab`] that holds the pending events and parks event
//! payloads too large for the payload word.
//!
//! Everything above this crate — the GPU device model, the interconnect,
//! the communication library, the task runtime, and the Jacobi3D proxy
//! application — executes as events scheduled on [`Sim`] over a world
//! type the embedding crate chooses. An event is a plain `fn` plus one
//! payload word, so cloning a [`Sim`] forks any engine state.
//!
//! ```
//! use gaat_sim::{Sim, SimDuration};
//!
//! let mut sim: Sim<u32> = Sim::new();
//! let mut counter = 0u32;
//! sim.after(SimDuration::from_us(5), |c: &mut u32, _, by| *c += by as u32, 1);
//! sim.run(&mut counter);
//! assert_eq!(counter, 1);
//! assert_eq!(sim.now().as_ns(), 5_000);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod rng;
pub mod slab;
pub mod time;
pub mod trace;

pub use engine::{EventId, RunOutcome, Sim};
pub use fault::{FaultPlan, LinkFault, LinkFaultKind, MsgFate, PeFault, StragglerWindow};
pub use rng::{mix64, SimRng};
pub use slab::Slab;
pub use time::{SimDuration, SimTime};
pub use trace::{Span, SpanStats, Tracer};
