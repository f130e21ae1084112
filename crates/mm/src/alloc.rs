//! Per-node physical frame allocation.
//!
//! Each pseudo-NUMA node gets a binary-buddy allocator over 4 KiB
//! granules, supporting every order up to 2 MiB pages, with coalescing on
//! free. A frame table records owner node and order for every live
//! allocation so migration can free old pages without trusting callers.

use std::collections::BTreeSet;

use memif_hwsim::churn::{ChurnMap, FastMap};
use memif_hwsim::{NodeId, PhysAddr, Topology};

use crate::addr::PageSize;

const GRANULE: u64 = 4096;
const MAX_ORDER: u8 = 10; // up to 4 MiB blocks

/// Errors from frame allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The node has no free block large enough.
    OutOfMemory(NodeId),
    /// Unknown node.
    NoSuchNode(NodeId),
    /// Freeing an address that is not an allocated block base.
    BadFree(PhysAddr),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory(n) => write!(f, "{n} out of free pages"),
            AllocError::NoSuchNode(n) => write!(f, "unknown memory {n}"),
            AllocError::BadFree(a) => write!(f, "free of unallocated block {a}"),
        }
    }
}

impl std::error::Error for AllocError {}

#[derive(Debug)]
struct Buddy {
    base: u64,
    /// Free block base offsets (from `base`), per order.
    free: Vec<BTreeSet<u64>>,
    free_bytes: u64,
    total_bytes: u64,
}

impl Buddy {
    fn new(base: PhysAddr, bytes: u64) -> Self {
        let mut b = Buddy {
            base: base.as_u64(),
            free: (0..=MAX_ORDER).map(|_| BTreeSet::new()).collect(),
            free_bytes: 0,
            total_bytes: 0,
        };
        // Seed with maximal aligned blocks.
        let mut off = 0;
        while off + GRANULE <= bytes {
            let mut order = MAX_ORDER;
            loop {
                let block = GRANULE << order;
                if off % block == 0 && off + block <= bytes {
                    break;
                }
                order -= 1;
            }
            b.free[order as usize].insert(off);
            let block = GRANULE << order;
            b.free_bytes += block;
            b.total_bytes += block;
            off += block;
        }
        b
    }

    fn alloc(&mut self, order: u8) -> Option<u64> {
        let mut found = None;
        for o in order..=MAX_ORDER {
            if let Some(&off) = self.free[o as usize].iter().next() {
                self.free[o as usize].remove(&off);
                found = Some((off, o));
                break;
            }
        }
        let (off, mut o) = found?;
        // Split down to the requested order, returning upper halves.
        while o > order {
            o -= 1;
            let half = GRANULE << o;
            self.free[o as usize].insert(off + half);
        }
        self.free_bytes -= GRANULE << order;
        debug_assert_eq!(off % (GRANULE << order), 0);
        Some(self.base + off)
    }

    fn free(&mut self, addr: u64, order: u8) {
        let mut off = addr - self.base;
        let mut o = order;
        self.free_bytes += GRANULE << order;
        // Coalesce with the buddy while possible.
        while o < MAX_ORDER {
            let block = GRANULE << o;
            let buddy = off ^ block;
            if self.free[o as usize].remove(&buddy) {
                off = off.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        self.free[o as usize].insert(off);
    }
}

/// Metadata for one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Owning node.
    pub node: NodeId,
    /// Buddy order of the block.
    pub order: u8,
    /// Reference count (shared mappings).
    pub refcount: u32,
}

/// The machine-wide frame allocator: one buddy per online node plus the
/// frame table.
#[derive(Debug)]
pub struct FrameAllocator {
    buddies: FastMap<NodeId, Buddy>,
    frames: ChurnMap<u64, FrameInfo>,
    allocs: u64,
    frees: u64,
}

impl FrameAllocator {
    /// Builds allocators for every *online* node of `topo` — before
    /// [`Topology::complete_boot`] the hidden SRAM bank gets none,
    /// reproducing the §6.1 boot constraint. Call again (or use
    /// [`FrameAllocator::online_node`]) after boot to add late banks.
    #[must_use]
    pub fn new(topo: &Topology) -> Self {
        let mut a = FrameAllocator {
            buddies: FastMap::default(),
            frames: ChurnMap::new(),
            allocs: 0,
            frees: 0,
        };
        for node in topo.online_nodes() {
            a.buddies.insert(node.id, Buddy::new(node.base, node.bytes));
        }
        a
    }

    /// Adds a node that came online after boot.
    ///
    /// # Panics
    ///
    /// Panics if the node already has an allocator.
    pub fn online_node(&mut self, node: &memif_hwsim::MemoryNode) {
        assert!(
            !self.buddies.contains_key(&node.id),
            "{} already online",
            node.id
        );
        self.buddies
            .insert(node.id, Buddy::new(node.base, node.bytes));
    }

    /// Allocates one `size` page on `node`.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoSuchNode`] or [`AllocError::OutOfMemory`].
    pub fn alloc(&mut self, node: NodeId, size: PageSize) -> Result<PhysAddr, AllocError> {
        let buddy = self
            .buddies
            .get_mut(&node)
            .ok_or(AllocError::NoSuchNode(node))?;
        let addr = buddy
            .alloc(size.order())
            .ok_or(AllocError::OutOfMemory(node))?;
        self.frames.insert(
            addr,
            FrameInfo {
                node,
                order: size.order(),
                refcount: 1,
            },
        );
        self.allocs += 1;
        Ok(PhysAddr::new(addr))
    }

    /// Drops one reference to the block at `addr`, freeing it when the
    /// count reaches zero.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] for an address that is not a live block
    /// base.
    pub fn free(&mut self, addr: PhysAddr) -> Result<(), AllocError> {
        let info = self
            .frames
            .get_mut(&addr.as_u64())
            .ok_or(AllocError::BadFree(addr))?;
        info.refcount -= 1;
        if info.refcount == 0 {
            let info = self.frames.remove(&addr.as_u64()).expect("just seen");
            let buddy = self
                .buddies
                .get_mut(&info.node)
                .expect("frame's node exists");
            buddy.free(addr.as_u64(), info.order);
            self.frees += 1;
        }
        Ok(())
    }

    /// Adds a reference to a live block (shared mapping).
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] if `addr` is not a live block base.
    pub fn get_ref(&mut self, addr: PhysAddr) -> Result<(), AllocError> {
        let info = self
            .frames
            .get_mut(&addr.as_u64())
            .ok_or(AllocError::BadFree(addr))?;
        info.refcount += 1;
        Ok(())
    }

    /// Frame metadata for a live block base.
    #[must_use]
    pub fn frame_info(&self, addr: PhysAddr) -> Option<FrameInfo> {
        self.frames.get(&addr.as_u64()).copied()
    }

    /// Free bytes remaining on `node`.
    #[must_use]
    pub fn free_bytes(&self, node: NodeId) -> u64 {
        self.buddies.get(&node).map_or(0, |b| b.free_bytes)
    }

    /// Total managed bytes on `node`.
    #[must_use]
    pub fn total_bytes(&self, node: NodeId) -> u64 {
        self.buddies.get(&node).map_or(0, |b| b.total_bytes)
    }

    /// `(allocations, frees)` performed so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.allocs, self.frees)
    }

    /// Number of live allocations.
    #[must_use]
    pub fn live_frames(&self) -> usize {
        self.frames.len()
    }

    /// The nodes with allocators, in id order.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.buddies.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memif_hwsim::Topology;

    fn booted_keystone() -> Topology {
        let mut t = Topology::keystone_ii();
        t.complete_boot();
        t
    }

    #[test]
    fn alloc_free_roundtrip() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let before = a.free_bytes(NodeId(1));
        let p = a.alloc(NodeId(1), PageSize::Small4K).unwrap();
        assert_eq!(a.free_bytes(NodeId(1)), before - 4096);
        assert_eq!(a.frame_info(p).unwrap().node, NodeId(1));
        a.free(p).unwrap();
        assert_eq!(a.free_bytes(NodeId(1)), before);
        assert_eq!(a.counters(), (1, 1));
        assert_eq!(a.live_frames(), 0);
    }

    #[test]
    fn sram_capacity_is_six_megabytes() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let mut pages = Vec::new();
        while let Ok(p) = a.alloc(NodeId(1), PageSize::Small4K) {
            pages.push(p);
        }
        assert_eq!(
            pages.len() as u64,
            (6 << 20) / 4096,
            "exactly 6 MiB of 4 KiB pages"
        );
        assert_eq!(
            a.alloc(NodeId(1), PageSize::Small4K),
            Err(AllocError::OutOfMemory(NodeId(1)))
        );
        for p in pages {
            a.free(p).unwrap();
        }
        assert_eq!(a.free_bytes(NodeId(1)), 6 << 20);
    }

    #[test]
    fn hidden_node_absent_until_onlined() {
        let topo = Topology::keystone_ii(); // not booted
        let mut a = FrameAllocator::new(&topo);
        assert_eq!(
            a.alloc(NodeId(1), PageSize::Small4K),
            Err(AllocError::NoSuchNode(NodeId(1)))
        );
        let mut topo2 = topo.clone();
        topo2.complete_boot();
        a.online_node(topo2.node(NodeId(1)).unwrap());
        assert!(a.alloc(NodeId(1), PageSize::Small4K).is_ok());
    }

    #[test]
    fn alignment_per_order() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        for size in PageSize::ALL {
            let p = a.alloc(NodeId(0), size).unwrap();
            assert_eq!(
                p.as_u64() % size.bytes(),
                0,
                "{size} block must be naturally aligned"
            );
        }
    }

    #[test]
    fn coalescing_restores_large_blocks() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        // Exhaust SRAM with 4 KiB pages, free them all, then grab 2 MiB
        // blocks: coalescing must have restored them.
        let pages: Vec<_> =
            std::iter::from_fn(|| a.alloc(NodeId(1), PageSize::Small4K).ok()).collect();
        for p in &pages {
            a.free(*p).unwrap();
        }
        let blocks: Vec<_> =
            std::iter::from_fn(|| a.alloc(NodeId(1), PageSize::Large2M).ok()).collect();
        assert_eq!(blocks.len(), 3, "6 MiB = 3 coalesced 2 MiB blocks");
    }

    #[test]
    fn refcounting_defers_free() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let p = a.alloc(NodeId(0), PageSize::Small4K).unwrap();
        a.get_ref(p).unwrap();
        a.free(p).unwrap();
        assert!(a.frame_info(p).is_some(), "still referenced");
        a.free(p).unwrap();
        assert!(a.frame_info(p).is_none());
    }

    #[test]
    fn bad_free_detected() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        assert!(matches!(
            a.free(PhysAddr::new(0xDEAD_B000)),
            Err(AllocError::BadFree(_))
        ));
        let p = a.alloc(NodeId(0), PageSize::Medium64K).unwrap();
        // Mid-block address is not a block base.
        assert!(matches!(
            a.free(p.offset(4096)),
            Err(AllocError::BadFree(_))
        ));
    }

    #[test]
    fn distinct_nodes_do_not_interfere() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let p0 = a.alloc(NodeId(0), PageSize::Small4K).unwrap();
        let p1 = a.alloc(NodeId(1), PageSize::Small4K).unwrap();
        assert_ne!(
            topo.node_of_addr(p0),
            topo.node_of_addr(p1),
            "allocations land in their node's physical range"
        );
    }
}
