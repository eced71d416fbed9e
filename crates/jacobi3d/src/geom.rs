//! 3D grid geometry: decomposition of the global grid into blocks,
//! neighbour topology, and chare→PE mapping.
//!
//! The grid is decomposed "in a way that minimizes the aggregate surface
//! area, which is tied to communication volume" (paper §IV-A): the
//! process (or chare) count is factorized into a 3D grid whose block
//! faces have the smallest total area.

/// Extents in three dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims {
    /// X extent (fastest-varying in memory).
    pub x: usize,
    /// Y extent.
    pub y: usize,
    /// Z extent.
    pub z: usize,
}

impl Dims {
    /// Construct from components.
    pub const fn new(x: usize, y: usize, z: usize) -> Self {
        Dims { x, y, z }
    }

    /// Cube with side `n`.
    pub const fn cube(n: usize) -> Self {
        Dims { x: n, y: n, z: n }
    }

    /// Total cells.
    pub fn count(&self) -> usize {
        self.x * self.y * self.z
    }
}

/// One of the six block faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Face {
    /// −x
    Xm,
    /// +x
    Xp,
    /// −y
    Ym,
    /// +y
    Yp,
    /// −z
    Zm,
    /// +z
    Zp,
}

/// All faces in canonical order.
pub const FACES: [Face; 6] = [Face::Xm, Face::Xp, Face::Ym, Face::Yp, Face::Zm, Face::Zp];

impl Face {
    /// Canonical index 0..6.
    pub fn index(self) -> usize {
        match self {
            Face::Xm => 0,
            Face::Xp => 1,
            Face::Ym => 2,
            Face::Yp => 3,
            Face::Zm => 4,
            Face::Zp => 5,
        }
    }

    /// The face seen from the other side.
    pub fn opposite(self) -> Face {
        match self {
            Face::Xm => Face::Xp,
            Face::Xp => Face::Xm,
            Face::Ym => Face::Yp,
            Face::Yp => Face::Ym,
            Face::Zm => Face::Zp,
            Face::Zp => Face::Zm,
        }
    }

    /// Axis (0=x, 1=y, 2=z) and direction (−1 or +1).
    pub fn axis_dir(self) -> (usize, isize) {
        match self {
            Face::Xm => (0, -1),
            Face::Xp => (0, 1),
            Face::Ym => (1, -1),
            Face::Yp => (1, 1),
            Face::Zm => (2, -1),
            Face::Zp => (2, 1),
        }
    }

    /// Cells on this face of a block with interior dims `d`.
    pub fn area(self, d: Dims) -> usize {
        match self.axis_dir().0 {
            0 => d.y * d.z,
            1 => d.x * d.z,
            _ => d.x * d.y,
        }
    }
}

/// Factorize `p` into a 3D grid minimizing the total block surface area
/// for a global grid of `global` cells. Deterministic: ties break toward
/// the lexicographically smallest (x, y, z).
pub fn best_grid(p: usize, global: Dims) -> Dims {
    assert!(p > 0);
    let mut best: Option<(f64, Dims)> = None;
    let mut i = 1;
    while i * i * i <= p {
        if p.is_multiple_of(i) {
            let rest = p / i;
            let mut j = i;
            while j * j <= rest {
                if rest.is_multiple_of(j) {
                    let k = rest / j;
                    // All permutations of (i, j, k) over the axes.
                    for (a, b, c) in [
                        (i, j, k),
                        (i, k, j),
                        (j, i, k),
                        (j, k, i),
                        (k, i, j),
                        (k, j, i),
                    ] {
                        let bx = global.x as f64 / a as f64;
                        let by = global.y as f64 / b as f64;
                        let bz = global.z as f64 / c as f64;
                        let surface = 2.0 * (bx * by + by * bz + bx * bz);
                        let cand = Dims::new(a, b, c);
                        let better = match &best {
                            None => true,
                            Some((s, d)) => {
                                surface < *s - 1e-9
                                    || (surface < *s + 1e-9
                                        && (cand.x, cand.y, cand.z) < (d.x, d.y, d.z))
                            }
                        };
                        if better {
                            best = Some((surface, cand));
                        }
                    }
                }
                j += 1;
            }
        }
        i += 1;
    }
    best.expect("p >= 1 always has a factorization").1
}

/// A decomposition of a global grid into a 3D grid of blocks.
#[derive(Debug, Clone)]
pub struct Decomp {
    /// Global grid extents.
    pub global: Dims,
    /// Block-grid extents (number of blocks per axis).
    pub grid: Dims,
}

impl Decomp {
    /// Decompose `global` into `count` surface-minimizing blocks.
    pub fn new(global: Dims, count: usize) -> Self {
        Decomp {
            global,
            grid: best_grid(count, global),
        }
    }

    /// Number of blocks.
    pub fn count(&self) -> usize {
        self.grid.count()
    }

    /// Block coordinate of a linear index (x fastest).
    pub fn coord_of(&self, idx: usize) -> (usize, usize, usize) {
        let x = idx % self.grid.x;
        let y = (idx / self.grid.x) % self.grid.y;
        let z = idx / (self.grid.x * self.grid.y);
        (x, y, z)
    }

    /// Linear index of a block coordinate.
    pub fn index_of(&self, c: (usize, usize, usize)) -> usize {
        (c.2 * self.grid.y + c.1) * self.grid.x + c.0
    }

    fn split(total: usize, parts: usize, i: usize) -> (usize, usize) {
        // First `total % parts` parts get one extra cell.
        let base = total / parts;
        let extra = total % parts;
        let len = base + usize::from(i < extra);
        let start = base * i + i.min(extra);
        (start, len)
    }

    /// Interior dims of the block at `c` (remainders spread to the
    /// lowest-coordinate blocks).
    pub fn block_dims(&self, c: (usize, usize, usize)) -> Dims {
        Dims::new(
            Self::split(self.global.x, self.grid.x, c.0).1,
            Self::split(self.global.y, self.grid.y, c.1).1,
            Self::split(self.global.z, self.grid.z, c.2).1,
        )
    }

    /// Global origin (lowest corner) of the block at `c`.
    pub fn block_origin(&self, c: (usize, usize, usize)) -> (usize, usize, usize) {
        (
            Self::split(self.global.x, self.grid.x, c.0).0,
            Self::split(self.global.y, self.grid.y, c.1).0,
            Self::split(self.global.z, self.grid.z, c.2).0,
        )
    }

    /// Neighbouring block coordinate across `face`, or `None` at the
    /// global boundary.
    pub fn neighbor(&self, c: (usize, usize, usize), face: Face) -> Option<(usize, usize, usize)> {
        let (axis, dir) = face.axis_dir();
        let mut n = [c.0 as isize, c.1 as isize, c.2 as isize];
        n[axis] += dir;
        let lim = [
            self.grid.x as isize,
            self.grid.y as isize,
            self.grid.z as isize,
        ];
        if n[axis] < 0 || n[axis] >= lim[axis] {
            return None;
        }
        Some((n[0] as usize, n[1] as usize, n[2] as usize))
    }

    /// Faces of block `c` that have neighbours.
    pub fn active_faces(&self, c: (usize, usize, usize)) -> Vec<Face> {
        FACES
            .iter()
            .copied()
            .filter(|&f| self.neighbor(c, f).is_some())
            .collect()
    }
}

/// Map chare `idx` of `nchares` onto one of `npes` PEs: contiguous blocks
/// of the linearized chare order (the Charm++ default block map).
pub fn chare_to_pe(idx: usize, nchares: usize, npes: usize) -> usize {
    assert!(idx < nchares);
    // Even split with remainders to the front, mirroring Decomp::split.
    let base = nchares / npes;
    let extra = nchares % npes;
    let boundary = (base + 1) * extra;
    if idx < boundary {
        idx / (base + 1)
    } else {
        extra + (idx - boundary) / base.max(1)
    }
}

/// Map chare `idx` onto a PE under the chosen placement policy:
/// [`Placement::Packed`] is [`chare_to_pe`]; [`Placement::RoundRobin`]
/// strides adjacent chares across PEs (and therefore nodes).
///
/// [`Placement::Packed`]: crate::app::Placement::Packed
/// [`Placement::RoundRobin`]: crate::app::Placement::RoundRobin
pub fn place_chare(
    idx: usize,
    nchares: usize,
    npes: usize,
    placement: crate::app::Placement,
) -> usize {
    match placement {
        crate::app::Placement::Packed => chare_to_pe(idx, nchares, npes),
        crate::app::Placement::RoundRobin => {
            assert!(idx < nchares);
            idx % npes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_grid_minimizes_surface_for_cube() {
        // A cube split 8 ways should be 2x2x2.
        assert_eq!(best_grid(8, Dims::cube(256)), Dims::new(2, 2, 2));
        // 6 ways: 1x2x3 (any permutation has equal surface for a cube; the
        // lexicographically smallest wins).
        let g = best_grid(6, Dims::cube(1536));
        assert_eq!(g.count(), 6);
        assert_eq!(g, Dims::new(1, 2, 3));
    }

    #[test]
    fn best_grid_respects_anisotropy() {
        // A grid long in z should be cut along z first.
        let g = best_grid(4, Dims::new(64, 64, 1024));
        assert_eq!(g, Dims::new(1, 1, 4));
    }

    #[test]
    fn paper_halo_size_reproduced() {
        // 1536^3 per node over 6 GPUs: largest face must be ~9 MiB
        // (paper §IV-B: "at most 9 MB").
        let d = Decomp::new(Dims::cube(1536), 6);
        let dims = d.block_dims((0, 0, 0));
        let max_face = FACES.iter().map(|f| f.area(dims) * 8).max().expect("faces");
        assert_eq!(max_face, 1536 * 768 * 8); // 9.4 MB
    }

    #[test]
    fn split_covers_grid_exactly() {
        let d = Decomp::new(Dims::new(100, 101, 7), 12);
        let mut total = 0;
        for idx in 0..d.count() {
            let c = d.coord_of(idx);
            assert_eq!(d.index_of(c), idx);
            total += d.block_dims(c).count();
        }
        assert_eq!(total, 100 * 101 * 7);
    }

    #[test]
    fn origins_tile_without_overlap() {
        let d = Decomp::new(Dims::new(64, 64, 64), 8);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..d.count() {
            let c = d.coord_of(idx);
            let o = d.block_origin(c);
            let b = d.block_dims(c);
            for z in 0..b.z {
                for y in 0..b.y {
                    for x in 0..b.x {
                        assert!(seen.insert((o.0 + x, o.1 + y, o.2 + z)));
                    }
                }
            }
        }
        assert_eq!(seen.len(), 64 * 64 * 64);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let d = Decomp::new(Dims::cube(96), 24);
        for idx in 0..d.count() {
            let c = d.coord_of(idx);
            for &f in &FACES {
                if let Some(n) = d.neighbor(c, f) {
                    assert_eq!(d.neighbor(n, f.opposite()), Some(c));
                }
            }
        }
    }

    #[test]
    fn boundary_blocks_have_fewer_faces() {
        let d = Decomp::new(Dims::cube(64), 27); // 3x3x3
        let corner = d.coord_of(0);
        assert_eq!(d.active_faces(corner).len(), 3);
        let center = d.index_of((1, 1, 1));
        assert_eq!(d.active_faces(d.coord_of(center)).len(), 6);
    }

    #[test]
    fn face_properties() {
        for &f in &FACES {
            assert_eq!(f.opposite().opposite(), f);
            assert_eq!(FACES[f.index()], f);
        }
        let d = Dims::new(4, 5, 6);
        assert_eq!(Face::Xm.area(d), 30);
        assert_eq!(Face::Yp.area(d), 24);
        assert_eq!(Face::Zm.area(d), 20);
    }

    #[test]
    fn chare_mapping_is_balanced_and_ordered() {
        let (nchares, npes) = (26, 8);
        let mut counts = vec![0usize; npes];
        let mut last = 0;
        for i in 0..nchares {
            let pe = chare_to_pe(i, nchares, npes);
            assert!(pe >= last, "mapping must be monotone");
            assert!(pe < npes);
            last = pe;
            counts[pe] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), nchares);
        let (mn, mx) = (
            counts.iter().min().expect("nonempty"),
            counts.iter().max().expect("nonempty"),
        );
        assert!(mx - mn <= 1, "balanced within 1: {counts:?}");
    }

    #[test]
    fn chare_mapping_odf1_is_identity() {
        for i in 0..16 {
            assert_eq!(chare_to_pe(i, 16, 16), i);
        }
    }
}
