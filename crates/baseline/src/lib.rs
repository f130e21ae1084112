//! The comparator: Linux page migration for NUMA, as of Linux 3.10.
//!
//! The memif paper's baseline throughout §6 is the kernel's synchronous
//! page-migration path driven through `mbind`/`move_pages`, plus the
//! `migspeed` utility from `numactl` for throughput runs. This crate
//! rebuilds that stack over the same [`memif_mm`] substrate memif uses,
//! with the *baseline* column of Table 1 as the per-page workflow:
//! per-page table walks, migration-entry race prevention with two
//! PTE+TLB updates per page, CPU byte copy, and cache maintenance.
//!
//! Keeping baseline and memif on identical substrates and cost constants
//! means every measured difference comes from the *designs* — interface
//! asynchrony, gang lookup, race detection, DMA offload, descriptor
//! reuse — not from modeling asymmetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod migrate;
pub mod migspeed;
pub mod syscalls;

pub use migrate::{migrate_region, MigrateOutcome, PageFailure};
pub use migspeed::{run_migspeed, MigspeedConfig, MigspeedError, MigspeedReport};
pub use syscalls::{mbind, RegionRequest, SyscallOutcome};
