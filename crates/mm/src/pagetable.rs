//! A three-level radix page table with gang lookup.
//!
//! Geometry follows ARM LPAE-style long descriptors: three levels of
//! 9-bit indices over a 39-bit virtual space, 4 KiB granules. 2 MiB pages
//! are level-2 block entries; 64 KiB pages are represented by one entry
//! at their aligned base granule (the contiguous-hint simplification).
//!
//! *Gang page lookup* (§5.1): all pages of a move request are virtually
//! contiguous, so most of their PTEs are adjacent. Only the first page
//! descends vertically from the root; the rest walk horizontally across
//! neighboring entries, restarting the descent only when the walk crosses
//! into a different leaf table. [`WalkStats`] counts both step kinds so
//! callers can charge the corresponding costs.

use crate::addr::{PageSize, VirtAddr};
use crate::pte::Pte;

const LEVEL_BITS: u32 = 9;
const FANOUT: usize = 1 << LEVEL_BITS;

/// Counts of page-table walking work, for cost charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStats {
    /// Full descents from the table root.
    pub vertical: u32,
    /// Steps to an adjacent entry within the same leaf table.
    pub horizontal: u32,
}

impl WalkStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: WalkStats) {
        self.vertical += other.vertical;
        self.horizontal += other.horizontal;
    }
}

#[derive(Debug)]
enum Slot {
    Empty,
    Table(Box<Node>),
    Leaf(Pte),
}

#[derive(Debug)]
struct Node {
    slots: Vec<Slot>,
}

impl Node {
    fn new() -> Self {
        Node {
            slots: (0..FANOUT).map(|_| Slot::Empty).collect(),
        }
    }
}

/// Errors from page-table mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The virtual address is not aligned to the page size.
    Unaligned(VirtAddr, PageSize),
    /// A mapping of a different granularity occupies the slot.
    Occupied(VirtAddr),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Unaligned(va, size) => write!(f, "{va} unaligned for {size} page"),
            TableError::Occupied(va) => write!(f, "conflicting mapping at {va}"),
        }
    }
}

impl std::error::Error for TableError {}

fn indices(vaddr: VirtAddr) -> [usize; 3] {
    let va = vaddr.as_u64();
    [
        ((va >> (12 + 2 * LEVEL_BITS)) & (FANOUT as u64 - 1)) as usize,
        ((va >> (12 + LEVEL_BITS)) & (FANOUT as u64 - 1)) as usize,
        ((va >> 12) & (FANOUT as u64 - 1)) as usize,
    ]
}

/// Leaf coordinates of a mapping: which table node and which entry.
fn leaf_key(vaddr: VirtAddr, size: PageSize) -> ([usize; 2], usize) {
    let [i1, i2, i3] = indices(vaddr);
    match size {
        PageSize::Large2M => ([i1, usize::MAX], i2),
        _ => ([i1, i2], i3),
    }
}

/// The entry at `slot` of leaf table `table`, if it holds a mapping.
fn leaf_entry(table: Option<&Node>, slot: usize) -> Option<Pte> {
    entry(&table?.slots[slot])
}

/// The mapping a leaf-table slot holds, if any.
fn entry(slot: &Slot) -> Option<Pte> {
    match *slot {
        Slot::Leaf(pte) => Some(pte),
        _ => None,
    }
}

/// Leaf-table slots one `size` page spans: 16 granules per 64 KiB page
/// (its entry sits at the aligned base), one slot otherwise.
fn slot_stride(size: PageSize) -> usize {
    match size {
        PageSize::Medium64K => 16,
        _ => 1,
    }
}

/// The per-address-space page table.
#[derive(Debug)]
pub struct PageTable {
    root: Node,
    mapped: usize,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        PageTable {
            root: Node::new(),
            mapped: 0,
        }
    }

    /// Number of live leaf entries.
    #[must_use]
    pub fn mapped_entries(&self) -> usize {
        self.mapped
    }

    /// Installs `pte` at `vaddr` (granularity from `pte.size()`).
    ///
    /// # Errors
    ///
    /// [`TableError::Unaligned`] for a misaligned address;
    /// [`TableError::Occupied`] if a table node blocks a block mapping or
    /// vice versa. Overwriting an existing *leaf* of the same shape is
    /// allowed (it is a remap).
    pub fn map(&mut self, vaddr: VirtAddr, pte: Pte) -> Result<(), TableError> {
        let size = pte.size();
        if !vaddr.is_aligned(size) {
            return Err(TableError::Unaligned(vaddr, size));
        }
        let slot = self.leaf_slot_mut(vaddr, size)?;
        let was_empty = matches!(slot, Slot::Empty);
        *slot = Slot::Leaf(pte);
        if was_empty {
            self.mapped += 1;
        }
        Ok(())
    }

    /// Removes the mapping at `vaddr`, returning the old entry.
    pub fn unmap(&mut self, vaddr: VirtAddr, size: PageSize) -> Option<Pte> {
        match self.leaf_slot_mut(vaddr, size) {
            Ok(slot) => match std::mem::replace(slot, Slot::Empty) {
                Slot::Leaf(pte) => {
                    self.mapped -= 1;
                    Some(pte)
                }
                old => {
                    *slot = old;
                    None
                }
            },
            Err(_) => None,
        }
    }

    /// Looks up the entry mapping `vaddr` at `size` granularity, with a
    /// full vertical walk.
    #[must_use]
    pub fn lookup(&self, vaddr: VirtAddr, size: PageSize) -> (Option<Pte>, WalkStats) {
        let stats = WalkStats {
            vertical: 1,
            horizontal: 0,
        };
        (self.peek(vaddr, size), stats)
    }

    /// Entry value without any cost accounting (internal/diagnostics).
    #[must_use]
    pub fn peek(&self, vaddr: VirtAddr, size: PageSize) -> Option<Pte> {
        let (node, slot) = leaf_key(vaddr, size);
        leaf_entry(self.leaf_table(node), slot)
    }

    /// The table node holding the leaf entries at `node` (a key from
    /// [`leaf_key`]): the level-3 table, or the level-2 table for 2 MiB
    /// blocks. `None` if no such table exists.
    fn leaf_table(&self, node: [usize; 2]) -> Option<&Node> {
        let Slot::Table(l2) = &self.root.slots[node[0]] else {
            return None;
        };
        if node[1] == usize::MAX {
            return Some(l2);
        }
        match &l2.slots[node[1]] {
            Slot::Table(l3) => Some(l3),
            _ => None,
        }
    }

    /// Gang lookup (§5.1): entries for `count` consecutive `size` pages
    /// starting at `start`. Returns one `Option<Pte>` per page plus the
    /// walk statistics (first page vertical, neighbors horizontal,
    /// re-descending on leaf-table boundaries).
    ///
    /// With `gang` false every page performs a full vertical walk — the
    /// per-page baseline behavior, kept for ablation A2.
    #[must_use]
    pub fn lookup_range(
        &self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        gang: bool,
    ) -> (Vec<Option<Pte>>, WalkStats) {
        let mut out = Vec::with_capacity(count as usize);
        let stats = self.lookup_range_into(start, count, size, gang, &mut out);
        (out, stats)
    }

    /// [`lookup_range`](Self::lookup_range) writing into a caller-owned
    /// buffer (cleared first), so hot paths can reuse one allocation
    /// across requests instead of allocating a result vector per call.
    pub fn lookup_range_into(
        &self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        gang: bool,
        out: &mut Vec<Option<Pte>>,
    ) -> WalkStats {
        out.clear();
        out.reserve(count as usize);
        let mut stats = WalkStats::default();
        // One run per leaf table: the key is computed and the table
        // resolved once, and the run's entries are read off the table's
        // slots. The charged walk (`stats`) descends once per run with
        // `gang` and once per page without; the host walk is the same
        // either way.
        let stride = slot_stride(size);
        let count = count as usize;
        while out.len() < count {
            let vaddr = start.offset(out.len() as u64 * size.bytes());
            let (node, slot) = leaf_key(vaddr, size);
            let run = (FANOUT - slot).div_ceil(stride).min(count - out.len());
            match self.leaf_table(node) {
                Some(table) => {
                    let slots = table.slots[slot..].iter().step_by(stride);
                    out.extend(slots.take(run).map(entry));
                }
                None => out.resize(out.len() + run, None),
            }
            let run = run as u32;
            if gang {
                stats.vertical += 1;
                stats.horizontal += run - 1;
            } else {
                stats.vertical += run;
            }
        }
        stats
    }

    /// Replaces the entry at `vaddr`, returning the old one.
    ///
    /// # Errors
    ///
    /// Propagates [`TableError`] from slot resolution.
    pub fn replace(&mut self, vaddr: VirtAddr, new: Pte) -> Result<Pte, TableError> {
        let slot = self.leaf_slot_mut(vaddr, new.size())?;
        let old = match std::mem::replace(slot, Slot::Leaf(new)) {
            Slot::Leaf(pte) => pte,
            Slot::Empty => {
                self.mapped += 1;
                Pte::EMPTY
            }
            Slot::Table(_) => unreachable!("leaf_slot_mut never returns a table slot"),
        };
        Ok(old)
    }

    /// The compare-and-swap of §5.2: installs `new` only if the current
    /// entry equals `expected`; otherwise returns the entry actually
    /// found. This is how memif's Release detects races: any concurrent
    /// modification of the semi-final PTE makes the swap fail.
    ///
    /// # Errors
    ///
    /// `Err(actual)` when the current entry differs from `expected`.
    pub fn compare_exchange(
        &mut self,
        vaddr: VirtAddr,
        expected: Pte,
        new: Pte,
    ) -> Result<(), Pte> {
        let size = new.size();
        let current = self.peek(vaddr, size).unwrap_or(Pte::EMPTY);
        if current != expected {
            return Err(current);
        }
        self.replace(vaddr, new).map_err(|_| current)?;
        Ok(())
    }

    fn leaf_slot_mut(&mut self, vaddr: VirtAddr, size: PageSize) -> Result<&mut Slot, TableError> {
        if !vaddr.is_aligned(size) {
            return Err(TableError::Unaligned(vaddr, size));
        }
        let [i1, i2, i3] = indices(vaddr);
        let l2 = match &mut self.root.slots[i1] {
            slot @ Slot::Empty => {
                *slot = Slot::Table(Box::new(Node::new()));
                match slot {
                    Slot::Table(n) => n,
                    _ => unreachable!(),
                }
            }
            Slot::Table(n) => n,
            Slot::Leaf(_) => return Err(TableError::Occupied(vaddr)),
        };
        if size == PageSize::Large2M {
            return match &mut l2.slots[i2] {
                Slot::Table(_) => Err(TableError::Occupied(vaddr)),
                slot => Ok(slot),
            };
        }
        let l3 = match &mut l2.slots[i2] {
            slot @ Slot::Empty => {
                *slot = Slot::Table(Box::new(Node::new()));
                match slot {
                    Slot::Table(n) => n,
                    _ => unreachable!(),
                }
            }
            Slot::Table(n) => n,
            Slot::Leaf(_) => return Err(TableError::Occupied(vaddr)),
        };
        Ok(&mut l3.slots[i3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memif_hwsim::PhysAddr;

    fn pte(frame: u64, size: PageSize) -> Pte {
        Pte::mapping(PhysAddr::new(frame), size)
    }

    #[test]
    fn map_lookup_unmap() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        t.map(va, pte(0x8000_0000, PageSize::Small4K)).unwrap();
        assert_eq!(t.mapped_entries(), 1);
        let (found, stats) = t.lookup(va, PageSize::Small4K);
        assert_eq!(found.unwrap().frame(), PhysAddr::new(0x8000_0000));
        assert_eq!(stats.vertical, 1);
        assert_eq!(
            t.unmap(va, PageSize::Small4K).unwrap().frame(),
            PhysAddr::new(0x8000_0000)
        );
        assert_eq!(t.mapped_entries(), 0);
        assert!(t.peek(va, PageSize::Small4K).is_none());
    }

    #[test]
    fn large_pages_live_at_level_2() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        t.map(va, pte(0x8020_0000, PageSize::Large2M)).unwrap();
        assert_eq!(
            t.peek(va, PageSize::Large2M).unwrap().size(),
            PageSize::Large2M
        );
        // A 4 KiB mapping inside the block conflicts.
        assert_eq!(
            t.map(va.offset(4096), pte(0x9000_0000, PageSize::Small4K)),
            Err(TableError::Occupied(va.offset(4096)))
        );
    }

    #[test]
    fn unaligned_map_rejected() {
        let mut t = PageTable::new();
        assert!(matches!(
            t.map(
                VirtAddr::new(0x1234_0000),
                pte(0x8020_0000, PageSize::Large2M)
            ),
            Err(TableError::Unaligned(..))
        ));
    }

    #[test]
    fn gang_lookup_walks_horizontally() {
        let mut t = PageTable::new();
        let base = VirtAddr::new(0x10_0000);
        for i in 0..16u64 {
            t.map(
                base.offset(i * 4096),
                pte(0x8000_0000 + i * 4096, PageSize::Small4K),
            )
            .unwrap();
        }
        let (entries, stats) = t.lookup_range(base, 16, PageSize::Small4K, true);
        assert_eq!(entries.len(), 16);
        assert!(entries.iter().all(Option::is_some));
        assert_eq!(stats.vertical, 1, "one descent for the whole request");
        assert_eq!(stats.horizontal, 15);
    }

    #[test]
    fn gang_lookup_redescends_across_leaf_tables() {
        let mut t = PageTable::new();
        // Straddle a 2 MiB leaf-table boundary: last granule of one L3
        // table and first of the next.
        let base = VirtAddr::new(0x20_0000 - 4096);
        t.map(base, pte(0x8000_0000, PageSize::Small4K)).unwrap();
        t.map(base.offset(4096), pte(0x8000_1000, PageSize::Small4K))
            .unwrap();
        let (_, stats) = t.lookup_range(base, 2, PageSize::Small4K, true);
        assert_eq!(stats.vertical, 2, "boundary crossing forces a re-descent");
        assert_eq!(stats.horizontal, 0);
    }

    #[test]
    fn per_page_lookup_is_all_vertical() {
        let mut t = PageTable::new();
        let base = VirtAddr::new(0x10_0000);
        for i in 0..8u64 {
            t.map(
                base.offset(i * 4096),
                pte(0x8000_0000 + i * 4096, PageSize::Small4K),
            )
            .unwrap();
        }
        let (_, stats) = t.lookup_range(base, 8, PageSize::Small4K, false);
        assert_eq!(stats.vertical, 8, "baseline walks every page from the root");
        assert_eq!(stats.horizontal, 0);
    }

    #[test]
    fn gang_lookup_reports_holes() {
        let mut t = PageTable::new();
        let base = VirtAddr::new(0x10_0000);
        t.map(base, pte(0x8000_0000, PageSize::Small4K)).unwrap();
        t.map(base.offset(2 * 4096), pte(0x8000_2000, PageSize::Small4K))
            .unwrap();
        let (entries, _) = t.lookup_range(base, 3, PageSize::Small4K, true);
        assert!(entries[0].is_some());
        assert!(entries[1].is_none());
        assert!(entries[2].is_some());
    }

    #[test]
    fn compare_exchange_detects_modification() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x5000_0000);
        let semi_final = pte(0x0C00_0000, PageSize::Small4K); // young set
        t.map(va, semi_final).unwrap();

        // Undisturbed: CAS succeeds.
        let final_pte = semi_final.with_young(false);
        t.compare_exchange(va, semi_final, final_pte).unwrap();
        assert_eq!(t.peek(va, PageSize::Small4K).unwrap(), final_pte);

        // Disturbed (a reference cleared young already): CAS fails and
        // reports the actual entry.
        t.replace(va, semi_final).unwrap();
        t.replace(va, semi_final.with_young(false)).unwrap(); // the "race"
        let err = t.compare_exchange(va, semi_final, final_pte).unwrap_err();
        assert_eq!(err, semi_final.with_young(false));
    }

    #[test]
    fn replace_returns_old() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x10_0000);
        assert_eq!(
            t.replace(va, pte(0x8000_0000, PageSize::Small4K)).unwrap(),
            Pte::EMPTY
        );
        let old = t.replace(va, pte(0x8000_1000, PageSize::Small4K)).unwrap();
        assert_eq!(old.frame(), PhysAddr::new(0x8000_0000));
        assert_eq!(t.mapped_entries(), 1);
    }

    #[test]
    fn walk_stats_merge() {
        let mut a = WalkStats {
            vertical: 1,
            horizontal: 2,
        };
        a.merge(WalkStats {
            vertical: 3,
            horizontal: 4,
        });
        assert_eq!(
            a,
            WalkStats {
                vertical: 4,
                horizontal: 6
            }
        );
    }

    #[test]
    fn medium_pages_at_aligned_base() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x100_0000);
        t.map(va, pte(0x8001_0000, PageSize::Medium64K)).unwrap();
        assert_eq!(
            t.peek(va, PageSize::Medium64K).unwrap().size(),
            PageSize::Medium64K
        );
        assert!(
            t.map(
                VirtAddr::new(0x100_1000),
                pte(0x8000_0000, PageSize::Medium64K)
            )
            .is_err(),
            "64 KiB mappings must be 64 KiB aligned"
        );
    }

    // ---- Gang walk against per-page lookups ----

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// 16 MiB of virtual space straddling the 1 GiB boundary, so ranges
    /// cross both level-3 tables (every 2 MiB) and level-2 tables.
    const BASE: u64 = 0x4000_0000 - (8 << 20);

    fn page_size(sel: u8) -> PageSize {
        match sel % 3 {
            0 => PageSize::Small4K,
            1 => PageSize::Medium64K,
            _ => PageSize::Large2M,
        }
    }

    /// The `idx`-th `size` page of the window (wrapping).
    fn page_in_window(size: PageSize, idx: u64) -> VirtAddr {
        VirtAddr::new(BASE + (idx % ((16 << 20) / size.bytes())) * size.bytes())
    }

    /// The charged walk as specified: a page descends from the root
    /// unless `gang` and it shares its leaf table with the page before.
    fn charged_walk(start: VirtAddr, count: u32, size: PageSize, gang: bool) -> WalkStats {
        let shift = if size == PageSize::Large2M { 30 } else { 21 };
        let table = |i: u32| {
            ((start.as_u64() + u64::from(i) * size.bytes()) >> shift) & ((1 << (39 - shift)) - 1)
        };
        let vertical = (0..count)
            .filter(|&i| !gang || i == 0 || table(i) != table(i - 1))
            .count() as u32;
        WalkStats {
            vertical,
            horizontal: count - vertical,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After random 4K / 64K / 2M mappings, every range lookup
        /// returns the per-page `peek` entries (and the entries of a
        /// plain model of the successful maps), with the charged walk's
        /// statistics, gang and per-page alike.
        #[test]
        fn range_lookup_matches_per_page_peeks(
            maps in proptest::collection::vec((0u8..3, any::<u64>()), 1..200),
            lookups in proptest::collection::vec(
                (0u8..3, any::<u64>(), any::<u64>(), any::<bool>()),
                1..20,
            ),
        ) {
            let mut t = PageTable::new();
            // Successful maps: 4K/64K entries by granule, 2M blocks by
            // 2 MiB index.
            let mut granules = BTreeMap::new();
            let mut blocks = BTreeMap::new();
            for (sel, idx) in maps {
                let size = page_size(sel);
                let va = page_in_window(size, idx);
                let entry = pte(0x8000_0000 + (idx % 1024) * size.bytes(), size);
                if t.map(va, entry).is_ok() {
                    if size == PageSize::Large2M {
                        blocks.insert(va.as_u64() >> 21, entry);
                    } else {
                        granules.insert(va.as_u64() >> 12, entry);
                    }
                }
            }
            let mut out = Vec::new();
            for (sel, idx, n, gang) in lookups {
                let size = page_size(sel);
                let start = page_in_window(size, idx);
                // Up to 1.5 leaf tables' worth of pages.
                let count = 1 + (n % (3 * 512 * PageSize::Small4K.bytes() / size.bytes() / 2)) as u32;
                let stats = t.lookup_range_into(start, count, size, gang, &mut out);
                prop_assert_eq!(stats, charged_walk(start, count, size, gang));
                prop_assert_eq!(out.len(), count as usize);
                for (i, found) in out.iter().enumerate() {
                    let va = start.offset(i as u64 * size.bytes());
                    prop_assert_eq!(*found, t.peek(va, size));
                    let modeled = if size == PageSize::Large2M {
                        blocks.get(&(va.as_u64() >> 21))
                    } else {
                        granules.get(&(va.as_u64() >> 12))
                    };
                    prop_assert_eq!(*found, modeled.copied());
                }
            }
        }
    }
}
