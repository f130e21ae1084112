//! Simulated physical memory with real byte contents.
//!
//! Byte copies in the experiments are *real*: migration and replication
//! verifiably move data, and race tests can corrupt and detect it. To
//! make an 8 GB DDR bank affordable, storage is sparse — 4 KiB frames
//! materialize on first write, and reads of untouched memory yield zeros
//! (matching zero-initialized fresh pages).
//!
//! Backed frames are shared copy-on-write: a frame-aligned copy makes
//! the destination frame share the source frame's bytes (a reference
//! count bump, no 4 KiB `memcpy`), and the first later write to either
//! side gives that side its own private copy. Reads cannot tell the
//! difference; only host time and memory do.

use std::fmt;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

/// A physical byte address on the simulated SoC.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Constructs an address.
    #[must_use]
    pub const fn new(addr: u64) -> Self {
        PhysAddr(addr)
    }

    /// Raw address value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Address advanced by `offset` bytes.
    #[must_use]
    pub const fn offset(self, offset: u64) -> Self {
        PhysAddr(self.0 + offset)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

const FRAME_SHIFT: u32 = 12;
const FRAME_SIZE: usize = 1 << FRAME_SHIFT;
/// Frames per leaf of the frame table: one 2 MiB chunk.
const LEAF_BITS: u32 = 9;
const LEAF_FRAMES: usize = 1 << LEAF_BITS;

/// One materialized frame's bytes, possibly shared by several frames
/// (copy-on-write: writers go through [`Rc::make_mut`]).
type Frame = Rc<[u8; FRAME_SIZE]>;

/// The frames of one 2 MiB chunk, `None` where unbacked.
type Leaf = [Option<Frame>; LEAF_FRAMES];

/// Sparse, byte-addressable physical memory.
///
/// Frames live in a two-level table indexed by frame number: a
/// directory with one entry per 2 MiB chunk, grown to the highest chunk
/// ever touched, pointing at 512-slot leaves allocated on the chunk's
/// first backed frame. Leaves are never freed, so frames coming and
/// going in a chunk already touched never allocate.
#[derive(Default)]
pub struct PhysMem {
    dir: Vec<Option<Box<Leaf>>>,
    /// Number of `Some` slots over all leaves.
    backed: usize,
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("backed_frames", &self.backed)
            .finish()
    }
}

/// Directory index and leaf slot of frame number `frame`.
fn split(frame: u64) -> (usize, usize) {
    (
        (frame >> LEAF_BITS) as usize,
        (frame as usize) & (LEAF_FRAMES - 1),
    )
}

impl PhysMem {
    /// Empty (all-zero) physical memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames that have been materialized.
    #[must_use]
    pub fn backed_frames(&self) -> usize {
        self.backed
    }

    /// The bytes of frame number `frame`, if it is backed.
    fn frame(&self, frame: u64) -> Option<&Frame> {
        let (chunk, slot) = split(frame);
        self.dir.get(chunk)?.as_ref()?[slot].as_ref()
    }

    /// The slot of frame number `frame`, allocating its leaf (and
    /// growing the directory) first if needed.
    fn slot_mut(&mut self, frame: u64) -> &mut Option<Frame> {
        let (chunk, slot) = split(frame);
        if chunk >= self.dir.len() {
            self.dir.resize_with(chunk + 1, || None);
        }
        let leaf = self.dir[chunk].get_or_insert_with(|| Box::new([const { None }; LEAF_FRAMES]));
        &mut leaf[slot]
    }

    /// Installs `data` as frame `frame`'s bytes.
    fn back(&mut self, frame: u64, data: Frame) {
        if self.slot_mut(frame).replace(data).is_none() {
            self.backed += 1;
        }
    }

    /// Drops frame `frame`'s bytes (reads return zeros afterwards).
    fn release(&mut self, frame: u64) {
        let (chunk, slot) = split(frame);
        if let Some(Some(leaf)) = self.dir.get_mut(chunk) {
            if leaf[slot].take().is_some() {
                self.backed -= 1;
            }
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut done = 0;
        while done < buf.len() {
            let frame = pos >> FRAME_SHIFT;
            let off = (pos as usize) & (FRAME_SIZE - 1);
            let n = (FRAME_SIZE - off).min(buf.len() - done);
            match self.frame(frame) {
                Some(data) => buf[done..done + n].copy_from_slice(&data[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            pos += n as u64;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) {
        let mut pos = addr.0;
        let mut done = 0;
        while done < buf.len() {
            let frame = pos >> FRAME_SHIFT;
            let off = (pos as usize) & (FRAME_SIZE - 1);
            let n = (FRAME_SIZE - off).min(buf.len() - done);
            let slot = self.slot_mut(frame);
            let fresh = slot.is_none();
            let data = slot.get_or_insert_with(|| Rc::new([0u8; FRAME_SIZE]));
            Rc::make_mut(data)[off..off + n].copy_from_slice(&buf[done..done + n]);
            self.backed += usize::from(fresh);
            done += n;
            pos += n as u64;
        }
    }

    /// Copies `len` bytes from `src` to `dst` (the byte-moving work a DMA
    /// descriptor or a kernel memcpy performs). Regions may overlap; the
    /// copy behaves like `memmove`.
    ///
    /// Frame-aligned copies preserve sparseness: an unbacked (all-zero)
    /// source frame *releases* the destination frame instead of
    /// materializing a zero-filled one, so moving a terabyte of
    /// untouched memory costs no host RAM. A backed source frame is
    /// shared copy-on-write with its destination. Reads observe the same
    /// bytes either way.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) {
        if len == 0 || src == dst {
            return;
        }
        let mask = FRAME_SIZE as u64 - 1;
        if src.0 & mask == 0 && dst.0 & mask == 0 && len & mask == 0 {
            let frames = len >> FRAME_SHIFT;
            let src_f = src.0 >> FRAME_SHIFT;
            let dst_f = dst.0 >> FRAME_SHIFT;
            if src_f + frames <= dst_f || dst_f + frames <= src_f {
                for i in 0..frames {
                    self.share_frame(src_f + i, dst_f + i);
                }
                return;
            }
            // Overlapping ranges: walk away from the overlap, as memmove
            // does, so every source frame is read before it is
            // overwritten.
            if dst_f < src_f {
                for i in 0..frames {
                    self.share_frame(src_f + i, dst_f + i);
                }
            } else {
                for i in (0..frames).rev() {
                    self.share_frame(src_f + i, dst_f + i);
                }
            }
            return;
        }
        let mut buf = vec![0u8; len as usize];
        self.read(src, &mut buf);
        self.write(dst, &buf);
    }

    /// Makes frame `dst` hold frame `src`'s bytes: shares a backed
    /// source, releases the destination of an unbacked one.
    fn share_frame(&mut self, src: u64, dst: u64) {
        match self.frame(src).cloned() {
            Some(data) => self.back(dst, data),
            None => self.release(dst),
        }
    }

    /// Fills `len` bytes at `addr` with `value`.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, value: u8) {
        let buf = vec![value; len as usize];
        self.write(addr, &buf);
    }

    /// Reads one byte (test convenience).
    #[must_use]
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        let mut b = [0u8];
        self.read(addr, &mut b);
        b[0]
    }

    /// FNV-1a checksum over `len` bytes — used by tests and examples to
    /// verify data integrity across moves without holding copies.
    #[must_use]
    pub fn checksum(&self, addr: PhysAddr, len: u64) -> u64 {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in buf {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Releases the backing of every frame fully covered by the range
    /// (models freeing physical pages; reads return zeros afterwards).
    /// Partially covered frames at either end keep their bytes.
    pub fn discard(&mut self, addr: PhysAddr, len: u64) {
        let first = addr.0.div_ceil(FRAME_SIZE as u64);
        let last = (addr.0 + len) >> FRAME_SHIFT;
        for frame in first..last {
            self.release(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_of_untouched_memory_is_zero() {
        let mem = PhysMem::new();
        let mut buf = [0xAAu8; 64];
        mem.read(PhysAddr::new(0x1234_5678), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.backed_frames(), 0);
    }

    #[test]
    fn write_read_roundtrip_across_frames() {
        let mut mem = PhysMem::new();
        // Straddle a frame boundary deliberately.
        let addr = PhysAddr::new(4096 - 7);
        let data: Vec<u8> = (0..40).collect();
        mem.write(addr, &data);
        let mut back = vec![0u8; 40];
        mem.read(addr, &mut back);
        assert_eq!(back, data);
        assert_eq!(mem.backed_frames(), 2);
    }

    #[test]
    fn copy_moves_bytes() {
        let mut mem = PhysMem::new();
        let src = PhysAddr::new(0x10_000);
        let dst = PhysAddr::new(0x8000_0000);
        mem.fill(src, 8192, 0x5A);
        mem.copy(src, dst, 8192);
        assert_eq!(mem.read_u8(dst), 0x5A);
        assert_eq!(mem.read_u8(dst.offset(8191)), 0x5A);
        assert_eq!(mem.checksum(src, 8192), mem.checksum(dst, 8192));
    }

    #[test]
    fn overlapping_copy_is_memmove() {
        let mut mem = PhysMem::new();
        let base = PhysAddr::new(0x2000);
        let data: Vec<u8> = (0..=255).collect();
        mem.write(base, &data);
        mem.copy(base, base.offset(16), 256);
        assert_eq!(mem.read_u8(base.offset(16)), 0);
        assert_eq!(mem.read_u8(base.offset(16 + 255)), 255);
    }

    #[test]
    fn copies_are_private_after_a_write() {
        let mut mem = PhysMem::new();
        let (a, b, c) = (
            PhysAddr::new(0x4000),
            PhysAddr::new(0x10_000),
            PhysAddr::new(0x40_000),
        );
        mem.fill(a, 8192, 0x11);
        mem.copy(a, b, 8192);
        mem.copy(b, c, 8192);
        // A write to the copy leaves the source and the copy's copy alone.
        mem.write(b.offset(5), &[0x22]);
        assert_eq!(mem.read_u8(a.offset(5)), 0x11, "source unchanged");
        assert_eq!(mem.read_u8(c.offset(5)), 0x11, "second copy unchanged");
        assert_eq!(mem.read_u8(b.offset(5)), 0x22);
        // A write to the source leaves both copies alone.
        mem.write(a.offset(4096 + 7), &[0x33]);
        assert_eq!(mem.read_u8(b.offset(4096 + 7)), 0x11, "copy unchanged");
        assert_eq!(mem.read_u8(c.offset(4096 + 7)), 0x11, "copy unchanged");
        assert_eq!(mem.read_u8(a.offset(4096 + 7)), 0x33);
        // Freeing the source frames keeps the copies' bytes.
        mem.discard(a, 8192);
        assert_eq!(mem.read_u8(a.offset(100)), 0);
        assert_eq!(
            mem.checksum(b.offset(4096), 4096),
            mem.checksum(c.offset(4096), 4096)
        );
        assert_eq!(mem.read_u8(c.offset(8191)), 0x11);
    }

    #[test]
    fn overlapping_frame_copies_are_memmove() {
        const FRAMES: u64 = 8;
        let len = FRAMES * FRAME_SIZE as u64;
        for (src_f, dst_f, n) in [(0, 2, 5), (3, 1, 5), (1, 2, 6), (2, 0, 3), (0, 4, 4)] {
            let mut mem = PhysMem::new();
            let mut model: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            mem.write(PhysAddr::new(0), &model);
            // Leave one frame unbacked (all zero) to cover the release
            // path inside an overlapping copy.
            mem.discard(PhysAddr::new(FRAME_SIZE as u64), FRAME_SIZE as u64);
            model[FRAME_SIZE..2 * FRAME_SIZE].fill(0);
            let frame = |f: u64| (f * FRAME_SIZE as u64) as usize;
            model.copy_within(frame(src_f)..frame(src_f + n), frame(dst_f));
            mem.copy(
                PhysAddr::new(frame(src_f) as u64),
                PhysAddr::new(frame(dst_f) as u64),
                n * FRAME_SIZE as u64,
            );
            let mut back = vec![0u8; len as usize];
            mem.read(PhysAddr::new(0), &mut back);
            assert!(back == model, "copy {src_f}->{dst_f} x{n} frames");
            // Every frame is private again after a full rewrite.
            let ones = vec![1u8; len as usize];
            mem.write(PhysAddr::new(0), &ones);
            mem.read(PhysAddr::new(0), &mut back);
            assert!(back == ones);
        }
    }

    #[test]
    fn checksums_differ_for_different_data() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr::new(0), 128, 1);
        mem.fill(PhysAddr::new(4096), 128, 2);
        assert_ne!(
            mem.checksum(PhysAddr::new(0), 128),
            mem.checksum(PhysAddr::new(4096), 128)
        );
    }

    #[test]
    fn discard_releases_backing() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr::new(0), 4096 * 4, 0xFF);
        assert_eq!(mem.backed_frames(), 4);
        mem.discard(PhysAddr::new(0), 4096 * 2);
        assert_eq!(mem.backed_frames(), 2);
        assert_eq!(mem.read_u8(PhysAddr::new(0)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(4096 * 2)), 0xFF);
    }

    #[test]
    fn discard_keeps_partially_covered_frames() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr::new(0), 4096 * 4, 0xEE);
        // Covers the upper half of frame 1, all of frame 2 and the lower
        // half of frame 3: only frame 2 is fully covered.
        mem.discard(PhysAddr::new(0x1800), 0x2000);
        assert_eq!(mem.backed_frames(), 3);
        assert_eq!(mem.read_u8(PhysAddr::new(0x1000)), 0xEE);
        assert_eq!(mem.read_u8(PhysAddr::new(0x17FF)), 0xEE);
        assert_eq!(mem.read_u8(PhysAddr::new(0x1800)), 0xEE, "frame 1 kept");
        assert_eq!(mem.read_u8(PhysAddr::new(0x2000)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(0x3000)), 0xEE, "frame 3 kept");
        // A range inside one frame covers none.
        mem.discard(PhysAddr::new(0x10), 0x100);
        assert_eq!(mem.backed_frames(), 3);
    }

    #[test]
    fn aligned_copy_of_untouched_source_stays_sparse() {
        let mut mem = PhysMem::new();
        // Destination had data; the all-zero source overwrites it by
        // *releasing* the frames rather than materializing zeros.
        mem.fill(PhysAddr::new(0x8000), 4096 * 2, 0x77);
        assert_eq!(mem.backed_frames(), 2);
        mem.copy(PhysAddr::new(0x100_0000), PhysAddr::new(0x8000), 4096 * 2);
        assert_eq!(mem.backed_frames(), 0, "no zero frames materialized");
        assert_eq!(mem.read_u8(PhysAddr::new(0x8000)), 0);
    }

    #[test]
    fn aligned_copy_matches_byte_copy() {
        let mut a = PhysMem::new();
        let mut b = PhysMem::new();
        for m in [&mut a, &mut b] {
            m.fill(PhysAddr::new(0x1000), 4096, 0x11);
            // 0x2000 left unbacked; 0x3000 backed.
            m.fill(PhysAddr::new(0x3000), 4096, 0x33);
        }
        // a: aligned (frame) path; b: forced byte path via odd length
        // split into two copies.
        a.copy(PhysAddr::new(0x1000), PhysAddr::new(0x10_000), 4096 * 3);
        b.copy(PhysAddr::new(0x1000), PhysAddr::new(0x10_000), 4096 * 3 - 1);
        b.copy(
            PhysAddr::new(0x1000 + 4096 * 3 - 1),
            PhysAddr::new(0x10_000 + 4096 * 3 - 1),
            1,
        );
        assert_eq!(
            a.checksum(PhysAddr::new(0x10_000), 4096 * 3),
            b.checksum(PhysAddr::new(0x10_000), 4096 * 3)
        );
    }

    #[test]
    fn zero_len_and_self_copy_are_noops() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr::new(0), 16, 7);
        mem.copy(PhysAddr::new(0), PhysAddr::new(0), 16);
        mem.copy(PhysAddr::new(0), PhysAddr::new(64), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(64)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(0)), 7);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(PhysAddr::new(0xABC).to_string(), "0xabc");
        assert_eq!(format!("{:x}", PhysAddr::new(0xABC)), "abc");
    }

    // ---- Differential property against a reference model ----

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Physical memory written the plain way: every backed frame owns
    /// its bytes in an ordered map, and an aligned copy snapshots the
    /// source frames before writing any destination frame.
    #[derive(Default)]
    struct RefMem {
        frames: BTreeMap<u64, Vec<u8>>,
    }

    impl RefMem {
        fn read(&self, addr: u64, len: usize) -> Vec<u8> {
            let mut out = Vec::with_capacity(len);
            let mut a = addr;
            while out.len() < len {
                let off = (a & 4095) as usize;
                let n = (FRAME_SIZE - off).min(len - out.len());
                match self.frames.get(&(a >> FRAME_SHIFT)) {
                    Some(f) => out.extend_from_slice(&f[off..off + n]),
                    None => out.resize(out.len() + n, 0),
                }
                a += n as u64;
            }
            out
        }

        fn write(&mut self, addr: u64, bytes: &[u8]) {
            for (a, &b) in (addr..).zip(bytes) {
                self.frames
                    .entry(a >> FRAME_SHIFT)
                    .or_insert_with(|| vec![0; FRAME_SIZE])[(a & 4095) as usize] = b;
            }
        }

        fn copy(&mut self, src: u64, dst: u64, len: u64) {
            if len == 0 || src == dst {
                return;
            }
            if (src | dst | len) & 4095 == 0 {
                let (src_f, dst_f) = (src >> FRAME_SHIFT, dst >> FRAME_SHIFT);
                let snapshot: Vec<Option<Vec<u8>>> = (0..len >> FRAME_SHIFT)
                    .map(|i| self.frames.get(&(src_f + i)).cloned())
                    .collect();
                for (f, frame) in (dst_f..).zip(snapshot) {
                    match frame {
                        Some(bytes) => self.frames.insert(f, bytes),
                        None => self.frames.remove(&f),
                    };
                }
            } else {
                let bytes = self.read(src, len as usize);
                self.write(dst, &bytes);
            }
        }

        fn discard(&mut self, addr: u64, len: u64) {
            let first = addr.div_ceil(4096);
            let last = (addr + len) >> FRAME_SHIFT;
            for f in first..last {
                self.frames.remove(&f);
            }
        }
    }

    /// Twelve-frame windows: one straddling the leaf boundary between
    /// frames 511 and 512, one at the top of the highest bank.
    const WINDOWS: [u64; 2] = [506 * 4096, 0x20_0000_0000 + (8 << 30) - 6 * 4096];
    const WINDOW_BYTES: u64 = 12 * 4096;

    /// Frame-aligned areas for chunk-scale copies, each spanning
    /// several 2 MiB chunks: across the leaf boundary between frames 511
    /// and 512 (around window 0), across the top chunk of the highest
    /// bank and the bank's end (around window 1), and across two chunks
    /// no other operation touches.
    const AREAS: [u64; 3] = [
        0,
        0x20_0000_0000 + (8 << 30) - (2 << 20) - 64 * 4096,
        0x4000_0000 - 256 * 4096,
    ];
    /// Frames an area's copies start within, and the most they copy.
    const AREA_FRAMES: u64 = 512;

    /// An address in window `w % 2`: frame-aligned when `aligned`.
    fn addr(w: u64, x: u64, aligned: bool) -> u64 {
        let base = WINDOWS[(w % 2) as usize];
        if aligned {
            base + (x % 12) * 4096
        } else {
            base + x % WINDOW_BYTES
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random write / fill / copy / discard / read sequences —
        /// aligned, unaligned and overlapping, across a leaf boundary
        /// and in two distant chunks — read back the reference model's
        /// bytes and back the same number of frames. Then chunk-scale
        /// frame copies between the areas run from and onto chunks that
        /// are backed, partly backed or were never backed.
        #[test]
        fn physmem_matches_reference_model(
            ops in proptest::collection::vec(
                (0u8..6, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                1..40,
            ),
            chunk_copies in proptest::collection::vec(
                (0usize..3, any::<u64>(), 0usize..3, any::<u64>(), any::<u64>()),
                0..6,
            ),
        ) {
            let mut mem = PhysMem::new();
            let mut reference = RefMem::default();
            for (kind, a, b, c, d) in ops {
                // Half the copies and discards are frame-aligned.
                let aligned = d & 1 == 0;
                let len = if aligned { (c % 6) * 4096 } else { c % (3 * 4096) };
                match kind {
                    0 => {
                        let at = addr(a, b, false);
                        let bytes: Vec<u8> =
                            (0..c % 9000).map(|i| (d >> (i % 8)) as u8 ^ i as u8).collect();
                        mem.write(PhysAddr::new(at), &bytes);
                        reference.write(at, &bytes);
                    }
                    1 => {
                        let at = addr(a, b, false);
                        let len = c % 9000;
                        mem.fill(PhysAddr::new(at), len, d as u8);
                        reference.write(at, &vec![d as u8; len as usize]);
                    }
                    2 | 3 => {
                        // Kind 2 copies within one window, so source and
                        // destination often overlap; kind 3 may cross.
                        let src = addr(a, b, aligned);
                        let dst = addr(if kind == 2 { a } else { a >> 1 }, d >> 8, aligned);
                        mem.copy(PhysAddr::new(src), PhysAddr::new(dst), len);
                        reference.copy(src, dst, len);
                    }
                    4 => {
                        let at = addr(a, b, aligned);
                        mem.discard(PhysAddr::new(at), len);
                        reference.discard(at, len);
                    }
                    _ => {
                        let at = addr(a, b, false);
                        let mut back = vec![0u8; (c % 9000) as usize];
                        mem.read(PhysAddr::new(at), &mut back);
                        prop_assert!(back == reference.read(at, back.len()), "read at {at:#x}");
                    }
                }
                prop_assert_eq!(mem.backed_frames(), reference.frames.len());
            }
            for base in WINDOWS {
                let (start, len) = (base - 4 * 4096, WINDOW_BYTES + 8 * 4096);
                let mut back = vec![0u8; len as usize];
                mem.read(PhysAddr::new(start), &mut back);
                prop_assert!(back == reference.read(start, len as usize), "window {base:#x}");
            }
            for (a, x, b, y, n) in chunk_copies {
                let src = AREAS[a] + x % AREA_FRAMES * 4096;
                let dst = AREAS[b] + y % AREA_FRAMES * 4096;
                let len = (1 + n % AREA_FRAMES) * 4096;
                mem.copy(PhysAddr::new(src), PhysAddr::new(dst), len);
                reference.copy(src, dst, len);
                prop_assert_eq!(mem.backed_frames(), reference.frames.len());
            }
            let mut back = [0u8; FRAME_SIZE];
            for base in AREAS {
                for f in (base >> FRAME_SHIFT..).take(2 * AREA_FRAMES as usize) {
                    mem.read(PhysAddr::new(f << FRAME_SHIFT), &mut back);
                    let want = reference.frames.get(&f).map_or(&[0u8; FRAME_SIZE][..], |v| v);
                    prop_assert!(back[..] == *want, "frame {f:#x}");
                }
            }
        }
    }
}
