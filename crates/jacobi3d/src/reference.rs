//! Sequential reference solver used to validate every parallel variant.
//!
//! Operates on the whole global grid with one ghost layer, using exactly
//! the same update arithmetic (and operand order) as the block kernels,
//! so validation can demand bit-exact equality.

use crate::geom::Dims;
use crate::kernels::idx;

/// Deterministic initial condition: a smooth function of the global cell
/// coordinate. Both the reference and the distributed blocks initialize
/// from this.
pub fn initial_value(gx: usize, gy: usize, gz: usize) -> f64 {
    // Values spread over a few orders of magnitude exercise the stencil
    // without overflowing after many iterations.
    ((gx as f64 * 0.7).sin() + (gy as f64 * 1.3).cos() + (gz as f64 * 0.29).sin()) * 10.0
        + (gx * 3 + gy * 5 + gz * 7) as f64 * 1e-3
}

/// The full-grid sequential solver.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Global interior dims.
    pub dims: Dims,
    u: Vec<f64>,
    tmp: Vec<f64>,
}

impl Reference {
    /// Initialize a `dims` grid with [`initial_value`] in the interior and
    /// zero (Dirichlet) boundary ghosts.
    pub fn new(dims: Dims) -> Self {
        let len = (dims.x + 2) * (dims.y + 2) * (dims.z + 2);
        let mut u = vec![0.0; len];
        for z in 1..=dims.z {
            for y in 1..=dims.y {
                for x in 1..=dims.x {
                    u[idx(dims, x, y, z)] = initial_value(x - 1, y - 1, z - 1);
                }
            }
        }
        Reference {
            dims,
            tmp: u.clone(),
            u,
        }
    }

    /// Perform `iters` Jacobi sweeps. Parallelized over z-slabs on a
    /// `std::thread::scope` worker pool (one contiguous band of slabs per
    /// worker); each output cell is written exactly once from the
    /// read-only input buffer, so the result is bit-identical to the
    /// sequential sweep.
    pub fn run(&mut self, iters: usize) {
        let d = self.dims;
        let sx = 1usize;
        let sy = d.x + 2;
        let sz = (d.x + 2) * (d.y + 2);
        let workers = std::thread::available_parallelism()
            .map(|x| x.get())
            .unwrap_or(1)
            .min(d.z)
            .max(1);
        for _ in 0..iters {
            let u = &self.u;
            // Hand each worker a contiguous band of z-slabs. Ghost slabs
            // (z = 0 and z = d.z + 1) are never written.
            std::thread::scope(|scope| {
                let mut rest: &mut [f64] = &mut self.tmp[sz..(d.z + 1) * sz];
                let per = d.z / workers;
                let extra = d.z % workers;
                let mut z0 = 1usize;
                for w in 0..workers {
                    let slabs = per + usize::from(w < extra);
                    if slabs == 0 {
                        continue;
                    }
                    let (band, tail) = rest.split_at_mut(slabs * sz);
                    rest = tail;
                    let z_lo = z0;
                    z0 += slabs;
                    scope.spawn(move || {
                        for (k, slab) in band.chunks_mut(sz).enumerate() {
                            let z = z_lo + k;
                            for y in 1..=d.y {
                                for x in 1..=d.x {
                                    let i = idx(d, x, y, z);
                                    let local = (y * (d.x + 2)) + x;
                                    slab[local] = (u[i - sx]
                                        + u[i + sx]
                                        + u[i - sy]
                                        + u[i + sy]
                                        + u[i - sz]
                                        + u[i + sz])
                                        / 6.0;
                                }
                            }
                        }
                    });
                }
            });
            std::mem::swap(&mut self.u, &mut self.tmp);
        }
    }

    /// Value at a global interior coordinate (0-based, without ghosts).
    pub fn value_at(&self, x: usize, y: usize, z: usize) -> f64 {
        self.u[idx(self.dims, x + 1, y + 1, z + 1)]
    }

    /// Sum of squares over the interior (a cheap fingerprint).
    pub fn norm2(&self) -> f64 {
        let d = self.dims;
        let mut acc = 0.0;
        for z in 1..=d.z {
            for y in 1..=d.y {
                for x in 1..=d.x {
                    let v = self.u[idx(d, x, y, z)];
                    acc += v * v;
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_interior_relaxes_toward_boundary() {
        // With zero boundaries, the interior must decay toward zero.
        let mut r = Reference::new(Dims::cube(4));
        let before = r.norm2();
        r.run(10);
        let after = r.norm2();
        assert!(after < before, "norm should decay: {before} -> {after}");
    }

    #[test]
    fn zero_iterations_is_identity() {
        let mut r = Reference::new(Dims::cube(3));
        let want = r.value_at(1, 1, 1);
        r.run(0);
        assert_eq!(r.value_at(1, 1, 1), want);
    }

    #[test]
    fn single_cell_grid() {
        let mut r = Reference::new(Dims::cube(1));
        r.run(1);
        // All six neighbours are zero boundary ghosts.
        assert_eq!(r.value_at(0, 0, 0), 0.0);
    }

    #[test]
    fn update_matches_block_kernel_on_whole_grid() {
        // The reference and the block `update` kernel must agree exactly
        // when the block covers the whole grid.
        use gaat_gpu::{MemoryPool, Space};
        let d = Dims::new(4, 3, 5);
        let mut r = Reference::new(d);

        let mut m = MemoryPool::new();
        let len = crate::kernels::ghosted_len(d);
        let uin = m.alloc_real(Space::Device, len);
        let uout = m.alloc_real(Space::Device, len);
        {
            let s = m.get_mut(uin).as_mut_slice().expect("real");
            for z in 1..=d.z {
                for y in 1..=d.y {
                    for x in 1..=d.x {
                        s[idx(d, x, y, z)] = initial_value(x - 1, y - 1, z - 1);
                    }
                }
            }
        }
        crate::kernels::update(&mut m, uin, uout, d);
        r.run(1);
        let s = m.get(uout).as_slice().expect("real");
        for z in 1..=d.z {
            for y in 1..=d.y {
                for x in 1..=d.x {
                    assert_eq!(
                        s[idx(d, x, y, z)],
                        r.value_at(x - 1, y - 1, z - 1),
                        "mismatch at ({x},{y},{z})"
                    );
                }
            }
        }
    }
}
