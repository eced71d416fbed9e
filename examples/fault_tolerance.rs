//! Fault tolerance — the second runtime-adaptivity feature the paper
//! names as a reason to accept overdecomposition ("overdecomposition may
//! be required to enable adaptive runtime features such as load balancing
//! and fault tolerance").
//!
//! Real-buffer Jacobi3D checkpoints every other iteration to a buddy PE.
//! A PE then dies at 60% of the fault-free makespan. The runtime rolls
//! every chare back to the last complete checkpoint cut, re-places the
//! dead PE's chares on the survivors, and redoes the lost iterations.
//! The final field still matches the sequential reference bit for bit.
//!
//! ```text
//! cargo run --release -p gaat --example fault_tolerance
//! ```

use gaat::jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat::rt::{App, MachineConfig};
use gaat::sim::{PeFault, SimTime};

fn main() {
    let mut machine = MachineConfig::validation(2, 2);
    machine.ucx.reliability.enabled = true;
    let mut cfg = JacobiConfig::new(machine, Dims::cube(16));
    cfg.comm = CommMode::HostStaging;
    cfg.odf = 2;
    cfg.iters = 8;
    cfg.warmup = 2;
    cfg.checkpoint_every = 2;

    // Fault-free pass: learn the makespan the failure is timed against.
    let (mut sim0, ids0, sh0) = charm::Shared::build(cfg.clone());
    let r0 = sh0.run(&mut sim0, &ids0).expect("every block finishes");
    println!(
        "fault-free: {} chares on {} PEs, makespan {}, {} checkpoints stored",
        ids0.len(),
        sim0.machine.pes.len(),
        r0.total,
        sim0.machine.stats().checkpoints_stored
    );

    let pe = 1;
    let at = SimTime::ZERO + r0.total.mul_f64(0.6);
    cfg.machine.faults.pe_failures = vec![PeFault { at, pe }];
    let (mut sim, ids, sh) = charm::Shared::build(cfg);
    let r = sh.run(&mut sim, &ids).expect("every block finishes");
    let st = sim.machine.stats();
    println!("\n*** PE {pe} fails at {at} ***\n");
    println!(
        "recoveries {}, chares restored {}, migrations {}",
        st.recoveries, st.chares_restored, st.migrations
    );
    println!(
        "makespan {} vs {} fault-free ({:+.1}%)",
        r.total,
        r0.total,
        (r.total.as_ns() as f64 / r0.total.as_ns() as f64 - 1.0) * 100.0
    );

    assert_eq!(st.recoveries, 1);
    let cells = sh.check(&sim, &ids);
    println!(
        "\n{cells} cells bit-identical to the reference solver: recovery is\n\
         rollback to a checkpoint cut plus migration off the dead PE, which\n\
         is exactly why the paper tolerates overdecomposition overheads."
    );
}
