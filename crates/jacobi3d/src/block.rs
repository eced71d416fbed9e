//! One block of the decomposed grid, shared by the task-runtime and MPI
//! versions: its buffers, its six kernels and its interior I/O.
//!
//! A block holds two ghosted solution buffers (`u[cur]` is the current
//! field, `u[1 - cur]` the update's output) and, per active face, a
//! device send and receive halo buffer plus, under host staging, their
//! host mirrors. Every variant (stream path, graph path, MPI) launches
//! kernels built here, so they all run the same kernels on the same
//! layout.

use gaat_gpu::{GpuTimingModel, MemoryPool};
use gaat_rt::{BufferId, Chare, ChareId, KernelSpec, Simulation, Space, Timing};

use crate::app::{CommMode, JacobiConfig, RunResult};
use crate::geom::{Decomp, Dims, Face};
use crate::kernels;
use crate::reference::{initial_value, Reference};

/// A block's geometry and device buffers.
#[derive(Debug, Clone)]
pub struct Block {
    /// Interior extents.
    pub dims: Dims,
    /// Global coordinates of the first interior cell.
    pub origin: (usize, usize, usize),
    /// Faces with a neighbour, in canonical order.
    pub faces: Vec<Face>,
    /// Neighbouring block index across each face.
    pub neighbors: [Option<usize>; 6],
    /// The two ghosted solution buffers.
    pub u: [BufferId; 2],
    /// Which of `u` holds the current field.
    pub cur: usize,
    send_d: [Option<BufferId>; 6],
    recv_d: [Option<BufferId>; 6],
    send_h: [Option<BufferId>; 6],
    recv_h: [Option<BufferId>; 6],
}

impl Block {
    /// Block `index` of `decomp`, its buffers allocated in `mem` and
    /// `u[0]` filled with the initial field (real buffers only).
    pub fn new(cfg: &JacobiConfig, decomp: &Decomp, index: usize, mem: &mut MemoryPool) -> Block {
        let c = decomp.coord_of(index);
        let faces = decomp.active_faces(c);
        let mut neighbors = [None; 6];
        for &f in &faces {
            neighbors[f.index()] = decomp.neighbor(c, f).map(|n| decomp.index_of(n));
        }
        // Buffers are placeholders until `alloc` allocates them.
        let shape = Block {
            dims: decomp.block_dims(c),
            origin: decomp.block_origin(c),
            faces,
            neighbors,
            u: [BufferId(0); 2],
            cur: 0,
            send_d: [None; 6],
            recv_d: [None; 6],
            send_h: [None; 6],
            recv_h: [None; 6],
        };
        let b = shape.alloc(cfg, mem);
        b.write_interior(mem, |(x, y, z)| initial_value(x, y, z));
        b
    }

    /// The same block with fresh buffers in `mem` (a migrated block's
    /// new device).
    pub fn realloc(&self, cfg: &JacobiConfig, mem: &mut MemoryPool) -> Block {
        self.clone().alloc(cfg, mem)
    }

    /// Allocate every buffer in `mem`. The order fixes the buffer ids:
    /// `u[0]`, `u[1]`, then per face the device send and receive buffers
    /// and, under host staging, the host send and receive buffers.
    fn alloc(mut self, cfg: &JacobiConfig, mem: &mut MemoryPool) -> Block {
        let real = cfg.machine.real_buffers;
        let len = kernels::ghosted_len(self.dims);
        self.u = [
            mem.alloc(Space::Device, len, real),
            mem.alloc(Space::Device, len, real),
        ];
        for &f in &self.faces {
            let (i, cells) = (f.index(), f.area(self.dims));
            self.send_d[i] = Some(mem.alloc(Space::Device, cells, real));
            self.recv_d[i] = Some(mem.alloc(Space::Device, cells, real));
            if cfg.comm == CommMode::HostStaging {
                self.send_h[i] = Some(mem.alloc(Space::Host, cells, real));
                self.recv_h[i] = Some(mem.alloc(Space::Host, cells, real));
            }
        }
        self
    }

    /// Cells in the halo across `f`.
    pub fn face_cells(&self, f: Face) -> usize {
        f.area(self.dims)
    }

    /// Device send buffer of face `f`.
    pub fn send_d(&self, f: Face) -> BufferId {
        self.send_d[f.index()].expect("active face")
    }

    /// Device receive buffer of face `f`.
    pub fn recv_d(&self, f: Face) -> BufferId {
        self.recv_d[f.index()].expect("active face")
    }

    /// Host send buffer of face `f` (host staging).
    pub fn send_h(&self, f: Face) -> BufferId {
        self.send_h[f.index()].expect("host-staged active face")
    }

    /// Host receive buffer of face `f` (host staging).
    pub fn recv_h(&self, f: Face) -> BufferId {
        self.recv_h[f.index()].expect("host-staged active face")
    }

    fn face_cell_counts(&self) -> Vec<usize> {
        self.faces.iter().map(|&f| self.face_cells(f)).collect()
    }

    fn halos(&self, buf: fn(&Block, Face) -> BufferId) -> Vec<(Face, BufferId)> {
        self.faces.iter().map(|&f| (f, buf(self, f))).collect()
    }

    // ---- kernel specs --------------------------------------------------

    /// The Jacobi update `u[p]` → `u[1 - p]`.
    pub fn update_spec(&self, t: &GpuTimingModel, p: usize) -> KernelSpec {
        self.update_spec_over(t, p, "update", self.dims.count())
    }

    /// The update, named `name` and priced over `cells` cells (the MPI
    /// manual-overlap variant prices only the exterior); the functional
    /// effect is always the full sweep.
    pub fn update_spec_over(
        &self,
        t: &GpuTimingModel,
        p: usize,
        name: &'static str,
        cells: usize,
    ) -> KernelSpec {
        let (uin, uout, d) = (self.u[p], self.u[1 - p], self.dims);
        let work = kernels::update_work(t, cells);
        KernelSpec::with_func(name, work, move |m| kernels::update(m, uin, uout, d))
    }

    /// Pack face `f` of `u[p]` into its send buffer.
    pub fn pack_spec(&self, t: &GpuTimingModel, p: usize, f: Face) -> KernelSpec {
        let (u, halo, d) = (self.u[p], self.send_d(f), self.dims);
        let work = kernels::copy_work(t, self.face_cells(f));
        KernelSpec::with_func("pack", work, move |m| kernels::pack(m, u, halo, d, f))
    }

    /// Unpack face `f`'s receive buffer into the ghosts of `u[p]`.
    pub fn unpack_spec(&self, t: &GpuTimingModel, p: usize, f: Face) -> KernelSpec {
        let (u, halo, d) = (self.u[p], self.recv_d(f), self.dims);
        let work = kernels::copy_work(t, self.face_cells(f));
        KernelSpec::with_func("unpack", work, move |m| kernels::unpack(m, u, halo, d, f))
    }

    /// Every face's pack from `u[p]` in one kernel (fusion A and B).
    pub fn fused_pack_spec(&self, t: &GpuTimingModel, p: usize) -> KernelSpec {
        let (u, d, send) = (self.u[p], self.dims, self.halos(Block::send_d));
        let work = kernels::fused_copy_work(t, &self.face_cell_counts());
        KernelSpec::with_func("pack_fused", work, move |m| {
            for &(f, h) in &send {
                kernels::pack(m, u, h, d, f);
            }
        })
    }

    /// Every face's unpack into `u[p]` in one kernel (fusion B).
    pub fn fused_unpack_spec(&self, t: &GpuTimingModel, p: usize) -> KernelSpec {
        let (u, d, recv) = (self.u[p], self.dims, self.halos(Block::recv_d));
        let work = kernels::fused_copy_work(t, &self.face_cell_counts());
        KernelSpec::with_func("unpack_fused", work, move |m| {
            for &(f, h) in &recv {
                kernels::unpack(m, u, h, d, f);
            }
        })
    }

    /// Unpacks into `u[p]`, the update and the packs of `u[1 - p]` in one
    /// kernel (fusion C).
    pub fn fused_all_spec(&self, t: &GpuTimingModel, p: usize) -> KernelSpec {
        let (uin, uout, d) = (self.u[p], self.u[1 - p], self.dims);
        let (recv, send) = (self.halos(Block::recv_d), self.halos(Block::send_d));
        let work = kernels::fused_all_work(t, d.count(), &self.face_cell_counts());
        KernelSpec::with_func("fused_all", work, move |m| {
            for &(f, h) in &recv {
                kernels::unpack(m, uin, h, d, f);
            }
            kernels::update(m, uin, uout, d);
            for &(f, h) in &send {
                kernels::pack(m, uout, h, d, f);
            }
        })
    }

    // ---- interior I/O --------------------------------------------------

    /// Visit every interior cell in storage order (x fastest) with its
    /// index into the ghosted buffer and its global coordinates.
    fn cells(&self, mut f: impl FnMut(usize, (usize, usize, usize))) {
        let (d, o) = (self.dims, self.origin);
        for z in 1..=d.z {
            for y in 1..=d.y {
                for x in 1..=d.x {
                    f(
                        kernels::idx(d, x, y, z),
                        (o.0 + x - 1, o.1 + y - 1, o.2 + z - 1),
                    );
                }
            }
        }
    }

    /// Visit the current field's interior in storage order, passing each
    /// cell's global coordinates and value; `None`, visiting nothing, for
    /// phantom buffers.
    pub fn read_interior(
        &self,
        mem: &MemoryPool,
        mut f: impl FnMut((usize, usize, usize), f64),
    ) -> Option<()> {
        let s = mem.get(self.u[self.cur]).as_slice()?;
        self.cells(|i, g| f(g, s[i]));
        Some(())
    }

    /// Overwrite the current field's interior, in storage order, with
    /// `value(global coordinates)` (a no-op on phantom buffers). Ghosts
    /// are left alone: the next halo exchange refreshes them.
    pub fn write_interior(
        &self,
        mem: &mut MemoryPool,
        mut value: impl FnMut((usize, usize, usize)) -> f64,
    ) {
        if let Some(s) = mem.get_mut(self.u[self.cur]).as_mut_slice() {
            self.cells(|i, g| s[i] = value(g));
        }
    }
}

/// A chare that owns one [`Block`]: what the result fold and the
/// final-field checks read from each app.
pub(crate) trait Owner: Chare {
    fn block(&self) -> &Block;
}

/// Every block with the memory pool its buffers live in.
fn blocks<'a, C: Owner>(
    sim: &'a Simulation,
    ids: &'a [ChareId],
) -> impl Iterator<Item = (&'a Block, &'a MemoryPool)> {
    ids.iter().map(|&id| {
        let dev = sim.machine.pe_device(sim.machine.pe_of(id));
        let b = sim.machine.chare_as::<C>(id).block();
        (b, &sim.machine.devices[dev.0].mem)
    })
}

/// Sum of squares of the final field (`None` in phantom mode). The field
/// is reconstructed in global order first, so the checksum is independent
/// of the decomposition and bit-comparable across variants.
pub(crate) fn checksum<C: Owner>(
    sim: &Simulation,
    ids: &[ChareId],
    cfg: &JacobiConfig,
) -> Option<f64> {
    if !cfg.machine.real_buffers {
        return None;
    }
    let g = cfg.global;
    let mut field = vec![0.0f64; g.count()];
    for (b, mem) in blocks::<C>(sim, ids) {
        b.read_interior(mem, |(x, y, z), v| field[(z * g.y + y) * g.x + x] = v)?;
    }
    Some(field.iter().map(|v| v * v).sum())
}

/// Compare every block's final field against the sequential reference,
/// bit-for-bit. Returns the number of cells compared.
pub(crate) fn validate<C: Owner>(sim: &Simulation, ids: &[ChareId], cfg: &JacobiConfig) -> usize {
    let mut reference = Reference::new(cfg.global);
    reference.run(cfg.total_iters());
    let mut compared = 0;
    for (b, mem) in blocks::<C>(sim, ids) {
        b.read_interior(mem, |(x, y, z), got| {
            let want = reference.value_at(x, y, z);
            assert_eq!(got, want, "cell ({x},{y},{z}): {got} != {want}");
            compared += 1;
        })
        .expect("validation needs real buffers");
    }
    compared
}

/// A finished run's [`RunResult`]: its timing plus the field checksum
/// and the machine's counters.
pub(crate) fn collect<C: Owner>(
    sim: &Simulation,
    ids: &[ChareId],
    cfg: &JacobiConfig,
    t: Timing,
    reduced_norm: Option<f64>,
) -> RunResult {
    let devices = &sim.machine.devices;
    RunResult {
        time_per_iter: t.unit,
        total: t.total,
        warm_at: t.warm_at,
        checksum: checksum::<C>(sim, ids, cfg),
        entries: sim.machine.stats().entries,
        kernels: devices.iter().map(|d| d.stats().kernels).sum(),
        graph_launches: devices.iter().map(|d| d.stats().graph_launches).sum(),
        cpu_utilization: t.cpu_utilization,
        reduced_norm,
    }
}
