//! Device and pinned-host memory for a simulated GPU.
//!
//! Every buffer is either **real** (`Vec<f64>` actually allocated and
//! mutated by functional kernel effects — used in validation mode on small
//! grids) or **phantom** (only a length — used at scale, where a 3072³ grid
//! would never fit in host RAM). The two modes charge identical simulated
//! time; only the data movement differs.

/// Which address space a buffer lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// GPU HBM.
    Device,
    /// Pinned host memory reachable by DMA engines and the NIC.
    Host,
}

/// Handle to a buffer in a device's [`MemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u32);

/// Storage behind a buffer: real data or just a size.
#[derive(Debug, Clone)]
enum Storage {
    Real(Vec<f64>),
    Phantom(usize),
}

/// One allocation (device or pinned host).
#[derive(Debug, Clone)]
pub struct Buffer {
    space: Space,
    storage: Storage,
}

impl Buffer {
    /// Number of `f64` elements.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Real(v) => v.len(),
            Storage::Phantom(n) => *n,
        }
    }

    /// True for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * 8
    }

    /// Address space.
    pub fn space(&self) -> Space {
        self.space
    }

    /// True when the buffer holds real data.
    pub fn is_real(&self) -> bool {
        matches!(self.storage, Storage::Real(_))
    }

    /// Read-only view of real data; `None` for phantom buffers.
    pub fn as_slice(&self) -> Option<&[f64]> {
        match &self.storage {
            Storage::Real(v) => Some(v),
            Storage::Phantom(_) => None,
        }
    }

    /// Mutable view of real data; `None` for phantom buffers.
    pub fn as_mut_slice(&mut self) -> Option<&mut [f64]> {
        match &mut self.storage {
            Storage::Real(v) => Some(v),
            Storage::Phantom(_) => None,
        }
    }
}

/// A contiguous range of elements within a buffer, the unit all copy and
/// communication operations work on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufRange {
    /// Which buffer.
    pub buf: BufferId,
    /// Starting element.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
}

impl BufRange {
    /// Range covering `len` elements of `buf` starting at `offset`.
    pub fn new(buf: BufferId, offset: usize, len: usize) -> Self {
        BufRange { buf, offset, len }
    }

    /// Range covering an entire buffer of `len` elements.
    pub fn whole(buf: BufferId, len: usize) -> Self {
        BufRange {
            buf,
            offset: 0,
            len,
        }
    }

    /// Size of the range in bytes.
    pub fn bytes(&self) -> u64 {
        self.len as u64 * 8
    }
}

/// All allocations belonging to one device (GPU HBM plus the pinned host
/// region used for staging with that GPU).
#[derive(Debug, Clone, Default)]
pub struct MemoryPool {
    bufs: Vec<Buffer>,
}

impl MemoryPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a real, zero-initialized buffer of `len` elements.
    pub fn alloc_real(&mut self, space: Space, len: usize) -> BufferId {
        self.push(Buffer {
            space,
            storage: Storage::Real(vec![0.0; len]),
        })
    }

    /// Allocate a phantom buffer of `len` elements (time-accounting only).
    pub fn alloc_phantom(&mut self, space: Space, len: usize) -> BufferId {
        self.push(Buffer {
            space,
            storage: Storage::Phantom(len),
        })
    }

    /// Allocate real or phantom depending on `real`.
    pub fn alloc(&mut self, space: Space, len: usize, real: bool) -> BufferId {
        if real {
            self.alloc_real(space, len)
        } else {
            self.alloc_phantom(space, len)
        }
    }

    fn push(&mut self, b: Buffer) -> BufferId {
        let id = BufferId(self.bufs.len() as u32);
        self.bufs.push(b);
        id
    }

    /// Shared access to a buffer.
    pub fn get(&self, id: BufferId) -> &Buffer {
        &self.bufs[id.0 as usize]
    }

    /// Mutable access to a buffer.
    pub fn get_mut(&mut self, id: BufferId) -> &mut Buffer {
        &mut self.bufs[id.0 as usize]
    }

    /// Number of allocations.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// True when no allocations exist.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Total allocated bytes (real + phantom).
    pub fn total_bytes(&self) -> u64 {
        self.bufs.iter().map(|b| b.bytes()).sum()
    }

    /// Allocated bytes in one address space.
    pub fn bytes_in(&self, space: Space) -> u64 {
        self.bufs
            .iter()
            .filter(|b| b.space() == space)
            .map(|b| b.bytes())
            .sum()
    }

    /// Copy elements between ranges (possibly of different buffers or the
    /// same buffer with non-overlapping ranges). Phantom endpoints make the
    /// copy a timing-only no-op.
    ///
    /// # Panics
    /// Panics if the ranges have different lengths or exceed buffer bounds
    /// on real buffers.
    pub fn copy(&mut self, src: BufRange, dst: BufRange) {
        assert_eq!(src.len, dst.len, "copy length mismatch");
        if src.len == 0 {
            return;
        }
        if !(self.get(src.buf).is_real() && self.get(dst.buf).is_real()) {
            return;
        }
        if src.buf == dst.buf {
            assert!(
                src.offset + src.len <= dst.offset || dst.offset + dst.len <= src.offset,
                "overlapping same-buffer copy"
            );
            let buf = self.get_mut(src.buf).as_mut_slice().expect("real");
            buf.copy_within(src.offset..src.offset + src.len, dst.offset);
        } else {
            // Split borrows via raw indices into the Vec.
            let (a, b) = (src.buf.0 as usize, dst.buf.0 as usize);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let (first, second) = self.bufs.split_at_mut(hi);
            let (src_slice, dst_slice) = if a < b {
                (
                    first[lo].as_mut_slice().expect("real") as &[f64],
                    second[0].as_mut_slice().expect("real"),
                )
            } else {
                (
                    second[0].as_mut_slice().expect("real") as &[f64],
                    first[lo].as_mut_slice().expect("real"),
                )
            };
            dst_slice[dst.offset..dst.offset + dst.len]
                .copy_from_slice(&src_slice[src.offset..src.offset + src.len]);
        }
    }

    /// Read a range out into an owned vector (`None` if the buffer is
    /// phantom). Used by the communication layer to carry real payloads.
    pub fn read(&self, range: BufRange) -> Option<Vec<f64>> {
        self.get(range.buf)
            .as_slice()
            .map(|s| s[range.offset..range.offset + range.len].to_vec())
    }

    /// Write a payload into a range; a phantom buffer ignores the data.
    pub fn write(&mut self, range: BufRange, data: &[f64]) {
        assert_eq!(range.len, data.len(), "write length mismatch");
        if let Some(s) = self.get_mut(range.buf).as_mut_slice() {
            s[range.offset..range.offset + range.len].copy_from_slice(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_sizes() {
        let mut m = MemoryPool::new();
        let a = m.alloc_real(Space::Device, 100);
        let b = m.alloc_phantom(Space::Host, 50);
        assert_eq!(m.get(a).len(), 100);
        assert_eq!(m.get(a).bytes(), 800);
        assert!(m.get(a).is_real());
        assert_eq!(m.get(a).space(), Space::Device);
        assert!(!m.get(b).is_real());
        assert_eq!(m.get(b).space(), Space::Host);
        assert_eq!(m.total_bytes(), 1200);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn real_buffers_zero_initialized() {
        let mut m = MemoryPool::new();
        let a = m.alloc_real(Space::Device, 8);
        assert!(m.get(a).as_slice().expect("real").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn copy_between_buffers() {
        let mut m = MemoryPool::new();
        let a = m.alloc_real(Space::Device, 8);
        let b = m.alloc_real(Space::Host, 8);
        m.get_mut(a).as_mut_slice().expect("real")[2] = 7.5;
        m.copy(BufRange::new(a, 2, 3), BufRange::new(b, 1, 3));
        assert_eq!(m.get(b).as_slice().expect("real")[1], 7.5);
        // reverse direction (higher index -> lower index buffer)
        m.get_mut(b).as_mut_slice().expect("real")[4] = -1.0;
        m.copy(BufRange::new(b, 4, 1), BufRange::new(a, 0, 1));
        assert_eq!(m.get(a).as_slice().expect("real")[0], -1.0);
    }

    #[test]
    fn copy_within_one_buffer() {
        let mut m = MemoryPool::new();
        let a = m.alloc_real(Space::Device, 10);
        {
            let s = m.get_mut(a).as_mut_slice().expect("real");
            s[0] = 1.0;
            s[1] = 2.0;
        }
        m.copy(BufRange::new(a, 0, 2), BufRange::new(a, 5, 2));
        let s = m.get(a).as_slice().expect("real");
        assert_eq!((s[5], s[6]), (1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_copy_panics() {
        let mut m = MemoryPool::new();
        let a = m.alloc_real(Space::Device, 10);
        m.copy(BufRange::new(a, 0, 5), BufRange::new(a, 3, 5));
    }

    #[test]
    fn phantom_copy_is_noop() {
        let mut m = MemoryPool::new();
        let a = m.alloc_phantom(Space::Device, 8);
        let b = m.alloc_real(Space::Host, 8);
        m.copy(BufRange::new(a, 0, 4), BufRange::new(b, 0, 4));
        assert!(m.get(b).as_slice().expect("real").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = MemoryPool::new();
        let a = m.alloc_real(Space::Device, 6);
        m.write(BufRange::new(a, 2, 3), &[1.0, 2.0, 3.0]);
        assert_eq!(
            m.read(BufRange::new(a, 2, 3)).expect("real"),
            vec![1.0, 2.0, 3.0]
        );
        let p = m.alloc_phantom(Space::Device, 6);
        assert!(m.read(BufRange::new(p, 0, 6)).is_none());
        m.write(BufRange::new(p, 0, 1), &[9.0]); // ignored, no panic
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_copy_panics() {
        let mut m = MemoryPool::new();
        let a = m.alloc_real(Space::Device, 10);
        let b = m.alloc_real(Space::Device, 10);
        m.copy(BufRange::new(a, 0, 3), BufRange::new(b, 0, 4));
    }
}
