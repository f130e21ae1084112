//! Automatic swap-out of fast memory.
//!
//! The paper's prototype "cannot automatically swap out fast memory"
//! (§6.7); applications had to manage the capacity-limited bank by hand
//! (as the `hot_region_migration` example does). [`FastPool`] closes
//! that gap as a runtime-level policy atop the unmodified memif API: it
//! tracks which regions are resident in the fast node, and when a
//! promotion does not fit, it first migrates the least-recently-used
//! resident regions back to slow memory — all asynchronously, with the
//! promotion queued behind its evictions.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use memif::{Memif, MoveSpec, NodeId, Sim, SpaceId, System, VirtAddr};
use memif_hwsim::churn::FastMap;
use memif_hwsim::MemoryKind;
use memif_mm::PageSize;

/// A region tracked by the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRegion {
    /// Owning address space.
    pub space: SpaceId,
    /// Region start.
    pub vaddr: VirtAddr,
    /// Pages.
    pub pages: u32,
    /// Page granularity.
    pub page_size: PageSize,
}

impl PoolRegion {
    /// Region length in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        u64::from(self.pages) * self.page_size.bytes()
    }
}

/// Pool activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Regions promoted into fast memory.
    pub promotions: u64,
    /// Regions automatically evicted to make room.
    pub evictions: u64,
    /// Promotions that had to wait for evictions.
    pub stalls: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// A promotion waiting for capacity.
    Promote(PoolRegion),
}

struct Inner {
    memif: Memif,
    fast: NodeId,
    slow: NodeId,
    /// Resident regions, least-recently-used first.
    resident: VecDeque<PoolRegion>,
    /// Bytes being migrated *out* right now (already counted as free-to-be).
    evicting: Vec<PoolRegion>,
    /// Promotions queued behind capacity.
    pending: VecDeque<Pending>,
    /// Bytes the pool leaves unallocated as headroom for other users.
    headroom: u64,
    /// In-flight request ids → what they were (true = eviction).
    inflight: FastMap<u64, (PoolRegion, bool)>,
    poll_armed: bool,
    stats: PoolStats,
}

/// An automatic fast-memory manager over one memif instance.
///
/// All pool traffic flows through the instance passed at construction;
/// the pool correlates completions by request id and re-arms `poll()`
/// while work is outstanding, so the owning application should not also
/// consume that instance's completion queue.
///
/// # Examples
///
/// ```
/// use memif::{Memif, MemifConfig, NodeId, PageSize, Sim, System};
/// use memif_runtime::{FastPool, PoolRegion};
///
/// let mut sys = System::keystone_ii();
/// let mut sim = Sim::new();
/// let space = sys.new_space();
/// let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
/// let pool = FastPool::new(&sys, memif, 0);
///
/// let vaddr = sys.mmap(space, 256, PageSize::Small4K, NodeId(0)).unwrap();
/// let region = PoolRegion { space, vaddr, pages: 256, page_size: PageSize::Small4K };
/// pool.promote(&mut sys, &mut sim, region);
/// sim.run(&mut sys);
/// assert!(pool.is_resident(&region)); // now in the 6 MiB fast bank
/// ```
pub struct FastPool {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for FastPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("FastPool")
            .field("resident", &inner.resident.len())
            .field("pending", &inner.pending.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl FastPool {
    /// Creates a pool over `memif`, keeping `headroom` bytes of the fast
    /// node unallocated.
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks a fast or slow node.
    pub fn new(sys: &System, memif: Memif, headroom: u64) -> FastPool {
        let fast = sys
            .topo
            .node_of_kind(MemoryKind::Fast)
            .expect("fast node")
            .id;
        let slow = sys
            .topo
            .node_of_kind(MemoryKind::Slow)
            .expect("slow node")
            .id;
        FastPool {
            inner: Rc::new(RefCell::new(Inner {
                memif,
                fast,
                slow,
                resident: VecDeque::new(),
                evicting: Vec::new(),
                pending: VecDeque::new(),
                headroom,
                inflight: FastMap::default(),
                poll_armed: false,
                stats: PoolStats::default(),
            })),
        }
    }

    /// Requests that `region` become resident in fast memory. If it does
    /// not fit, least-recently-used residents are evicted first and the
    /// promotion proceeds once room exists. Asynchronous: drive the sim.
    pub fn promote(&self, sys: &mut System, sim: &mut Sim<System>, region: PoolRegion) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.resident.contains(&region) {
                // Already resident: refresh recency.
                Self::touch_inner(&mut inner, region);
                return;
            }
            inner.pending.push_back(Pending::Promote(region));
        }
        Self::drain(&self.inner, sys, sim);
    }

    /// Marks a resident region recently used (moves it to the LRU tail).
    pub fn touch(&self, region: PoolRegion) {
        Self::touch_inner(&mut self.inner.borrow_mut(), region);
    }

    fn touch_inner(inner: &mut Inner, region: PoolRegion) {
        if let Some(pos) = inner.resident.iter().position(|r| *r == region) {
            let r = inner.resident.remove(pos).expect("position valid");
            inner.resident.push_back(r);
        }
    }

    /// True if `region` is currently resident in fast memory.
    #[must_use]
    pub fn is_resident(&self, region: &PoolRegion) -> bool {
        self.inner.borrow().resident.contains(region)
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.inner.borrow().stats
    }

    /// The memif instance the pool drives.
    #[must_use]
    pub fn memif(&self) -> Memif {
        self.inner.borrow().memif
    }

    /// Bytes currently resident through this pool.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.inner
            .borrow()
            .resident
            .iter()
            .map(PoolRegion::bytes)
            .sum()
    }

    /// True when no promotions or evictions are outstanding.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        let inner = self.inner.borrow();
        inner.pending.is_empty() && inner.inflight.is_empty()
    }

    /// Issues whatever work currently fits: evictions for the head
    /// pending promotion, or the promotion itself.
    fn drain(inner: &Rc<RefCell<Inner>>, sys: &mut System, sim: &mut Sim<System>) {
        loop {
            let action = {
                let mut me = inner.borrow_mut();
                let Some(Pending::Promote(region)) = me.pending.front().copied() else {
                    break;
                };
                let free = sys.alloc.free_bytes(me.fast);
                if free >= region.bytes() + me.headroom {
                    me.pending.pop_front();
                    me.stats.promotions += 1;
                    Some((region, false))
                } else if let Some(victim) = me.resident.pop_front() {
                    // Evict the LRU resident and retry once it lands.
                    me.evicting.push(victim);
                    me.stats.evictions += 1;
                    me.stats.stalls += 1;
                    Some((victim, true))
                } else if me.inflight.values().any(|(_, evicting)| *evicting) {
                    None // room is on its way
                } else {
                    // Nothing left to evict: the promotion can never fit.
                    // Drop it rather than deadlock; callers observe via
                    // is_resident.
                    me.pending.pop_front();
                    continue;
                }
            };
            match action {
                None => break,
                Some((region, evicting)) => {
                    let (memif, node) = {
                        let me = inner.borrow();
                        (me.memif, if evicting { me.slow } else { me.fast })
                    };
                    let (req, _) = memif
                        .submit(
                            sys,
                            sim,
                            MoveSpec::migrate(region.vaddr, region.pages, region.page_size, node),
                        )
                        .expect("pool submission");
                    inner
                        .borrow_mut()
                        .inflight
                        .insert(req.0, (region, evicting));
                    if evicting {
                        break; // wait for room before issuing the promote
                    }
                }
            }
        }
        Self::arm_poll(inner, sys, sim);
    }

    fn arm_poll(inner: &Rc<RefCell<Inner>>, sys: &mut System, sim: &mut Sim<System>) {
        {
            let mut me = inner.borrow_mut();
            if me.poll_armed || me.inflight.is_empty() {
                return;
            }
            me.poll_armed = true;
        }
        let memif = inner.borrow().memif;
        let inner2 = Rc::clone(inner);
        memif
            .poll(sys, sim, move |sys, sim| {
                inner2.borrow_mut().poll_armed = false;
                Self::on_completions(&inner2, sys, sim);
            })
            .expect("pool device open");
    }

    fn on_completions(inner: &Rc<RefCell<Inner>>, sys: &mut System, sim: &mut Sim<System>) {
        let memif = inner.borrow().memif;
        while let Some(c) = memif.retrieve_completed(sys).expect("region healthy") {
            let mut me = inner.borrow_mut();
            let Some((region, evicting)) = me.inflight.remove(&c.req_id.0) else {
                continue; // not ours
            };
            assert!(c.status.is_ok(), "pool moves never race: {:?}", c.status);
            if evicting {
                me.evicting.retain(|r| *r != region);
            } else {
                me.resident.push_back(region);
            }
        }
        Self::drain(inner, sys, sim);
    }
}
