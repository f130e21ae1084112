//! A `migspeed`-style throughput utility.
//!
//! `migspeed` ships with `numactl` and measures page-migration
//! throughput; §6.5 uses it as the Linux-side comparator for Figure 8,
//! and §2.2's motivating measurements (0.30 GB/s on the ARM SoC for 1500
//! 4 KiB pages in one `mbind`) are the same experiment.

use memif_hwsim::{CostModel, NodeId, PhysMem, SimDuration, Topology, UsageMeter};
use memif_mm::{AddressSpace, FrameAllocator, PageSize};

use crate::syscalls::{mbind, RegionRequest};

/// Configuration of one migspeed run.
#[derive(Debug, Clone, Copy)]
pub struct MigspeedConfig {
    /// Pages migrated per syscall batch.
    pub pages_per_syscall: u32,
    /// Number of syscall batches.
    pub batches: u32,
    /// Page granularity.
    pub page_size: PageSize,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
}

/// A migspeed measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigspeedReport {
    /// Pages moved.
    pub pages: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Total time (== CPU time: the path is synchronous).
    pub elapsed: SimDuration,
    /// Throughput in GB/s.
    pub throughput_gbps: f64,
    /// Mean cost per page in microseconds.
    pub per_page_us: f64,
}

/// Why a migspeed run could not measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigspeedError {
    /// The region (one batch of pages) does not fit in a node.
    Capacity {
        /// The node that cannot hold the region.
        node: NodeId,
        /// Bytes of one batch.
        needed_bytes: u64,
        /// The node's total capacity in bytes.
        capacity_bytes: u64,
    },
}

impl std::fmt::Display for MigspeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MigspeedError::Capacity {
                node,
                needed_bytes,
                capacity_bytes,
            } => {
                let mib = |bytes: u64| bytes as f64 / f64::from(1u32 << 20);
                write!(
                    f,
                    "a batch of {:.1} MiB does not fit node {}'s {:.1} MiB capacity",
                    mib(needed_bytes),
                    node.0,
                    mib(capacity_bytes)
                )
            }
        }
    }
}

impl std::error::Error for MigspeedError {}

/// Runs migspeed on a fresh address space over `topo`.
///
/// Regions are allocated on `from` and migrated to `to` batch by batch.
/// To keep the small `to` node (6 MiB SRAM) from overflowing, each batch
/// is migrated back to `from` before the next begins — exactly how
/// migspeed ping-pongs pages; only the forward direction is timed.
///
/// # Errors
///
/// [`MigspeedError::Capacity`] when one batch of pages cannot be placed
/// on `from` or moved in full to `to`.
pub fn run_migspeed(
    topo: &Topology,
    cost: &CostModel,
    config: MigspeedConfig,
) -> Result<MigspeedReport, MigspeedError> {
    let mut space = AddressSpace::new();
    let mut alloc = FrameAllocator::new(topo);
    let mut phys = PhysMem::new();
    let mut meter = UsageMeter::new();
    let capacity = |node: NodeId| MigspeedError::Capacity {
        node,
        needed_bytes: u64::from(config.pages_per_syscall) * config.page_size.bytes(),
        capacity_bytes: alloc.total_bytes(node),
    };
    let (no_room_from, no_room_to) = (capacity(config.from), capacity(config.to));

    let region = space
        .mmap_anonymous(
            &mut alloc,
            config.pages_per_syscall,
            config.page_size,
            config.from,
        )
        .map_err(|_| no_room_from)?;

    let mut elapsed = SimDuration::ZERO;
    for _ in 0..config.batches {
        let forward = RegionRequest {
            start: region,
            pages: config.pages_per_syscall,
            page_size: config.page_size,
            dst_node: config.to,
        };
        let out = mbind(
            &mut space,
            &mut alloc,
            &mut phys,
            cost,
            &mut meter,
            &[forward],
        );
        if !out.failed.is_empty() {
            return Err(no_room_to);
        }
        elapsed += out.duration;

        // Untimed return trip to reset placement.
        let back = RegionRequest {
            dst_node: config.from,
            ..forward
        };
        let out = mbind(&mut space, &mut alloc, &mut phys, cost, &mut meter, &[back]);
        if !out.failed.is_empty() {
            return Err(no_room_from);
        }
    }

    let pages = u64::from(config.pages_per_syscall) * u64::from(config.batches);
    let bytes = pages * config.page_size.bytes();
    Ok(MigspeedReport {
        pages,
        bytes,
        elapsed,
        throughput_gbps: bytes as f64 / elapsed.as_ns() as f64,
        per_page_us: elapsed.as_us_f64() / pages as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booted() -> Topology {
        let mut t = Topology::keystone_ii();
        t.complete_boot();
        t
    }

    /// §2.2: "In migrating 1500 4KB pages with one mbind() syscall, a
    /// server-class ARM SoC shows a throughput of 0.30 GB/sec."
    #[test]
    fn arm_microbench_matches_paper() {
        let report = run_migspeed(
            &booted(),
            &CostModel::keystone_ii(),
            MigspeedConfig {
                pages_per_syscall: 1_500,
                batches: 1,
                page_size: PageSize::Small4K,
                from: NodeId(0),
                to: NodeId(1),
            },
        )
        .expect("the batch fits both nodes");
        assert!(
            (0.25..0.35).contains(&report.throughput_gbps),
            "paper: 0.30 GB/s; got {:.3}",
            report.throughput_gbps
        );
        assert!(
            (13.0..17.0).contains(&report.per_page_us),
            "paper: ≈15 µs/page; got {:.1}",
            report.per_page_us
        );
        // Well below 10% of the 6.2 GB/s DDR bandwidth — the paper's point.
        assert!(report.throughput_gbps < 0.62);
    }

    /// §2.2 Xeon numbers: 0.66 GB/s at 1500 pages per syscall.
    #[test]
    fn xeon_microbench_matches_paper() {
        let report = run_migspeed(
            &booted(),
            &CostModel::xeon_e5(),
            MigspeedConfig {
                pages_per_syscall: 1_500,
                batches: 1,
                page_size: PageSize::Small4K,
                from: NodeId(0),
                to: NodeId(1),
            },
        )
        .expect("the batch fits both nodes");
        assert!(
            (0.5..0.9).contains(&report.throughput_gbps),
            "paper: 0.66 GB/s; got {:.3}",
            report.throughput_gbps
        );
    }

    #[test]
    fn throughput_improves_with_page_size() {
        let topo = booted();
        let cost = CostModel::keystone_ii();
        let small = run_migspeed(
            &topo,
            &cost,
            MigspeedConfig {
                pages_per_syscall: 64,
                batches: 2,
                page_size: PageSize::Small4K,
                from: NodeId(0),
                to: NodeId(1),
            },
        )
        .expect("the batch fits both nodes");
        let large = run_migspeed(
            &topo,
            &cost,
            MigspeedConfig {
                pages_per_syscall: 2,
                batches: 2,
                page_size: PageSize::Large2M,
                from: NodeId(0),
                to: NodeId(1),
            },
        )
        .expect("the batch fits both nodes");
        assert!(large.throughput_gbps > small.throughput_gbps);
        // But still bounded by the ≈1 GB/s CPU copy rate.
        assert!(large.throughput_gbps < cost.cpu_copy_bw_gbps * 1.01);
    }

    #[test]
    fn repeated_batches_accumulate() {
        let report = run_migspeed(
            &booted(),
            &CostModel::keystone_ii(),
            MigspeedConfig {
                pages_per_syscall: 100,
                batches: 5,
                page_size: PageSize::Small4K,
                from: NodeId(0),
                to: NodeId(1),
            },
        )
        .expect("the batch fits both nodes");
        assert_eq!(report.pages, 500);
        assert_eq!(report.bytes, 500 * 4096);
    }
}
