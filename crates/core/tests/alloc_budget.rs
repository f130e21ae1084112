//! Heap-allocation budget of the steady-state move path.
//!
//! Once a stream has warmed up — every per-device table, scratch buffer,
//! spare-vector pool and event-queue slot at its working size — issuing,
//! launching, copying and retiring a request must not touch the heap.
//! A counting global allocator, armed only on this test's own thread
//! (the harness runs other tests concurrently), counts every allocation
//! between the 1,000th and the 3,000th retirement of a closed-loop
//! stream. The application side is allocation-free by construction: it
//! sleeps in `poll_event` with a typed [`SimEvent::Hook`] (no closure
//! box per wakeup) and keeps its bookkeeping in preallocated vectors.
//!
//! The device's completion log grows by one record per request by
//! design; the test reserves its full length up front so the window
//! measures the move path, not the log's amortised doubling.
//!
//! A second counter spans the whole run, set-up included: every table
//! on the simulated path hashes without a per-process seed, so running
//! the same stream twice allocates exactly as often both times.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use memif::{
    HookId, Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, SimEvent, System, TenantConfig,
    TenantId, VirtAddr,
};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static RUN_ARMED: Cell<bool> = const { Cell::new(false) };
    static RUN_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
    let _ = RUN_ARMED.try_with(|armed| {
        if armed.get() {
            RUN_ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only `const`-initialised thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PAGE: PageSize = PageSize::Small4K;
/// Retirements before counting starts, and when it stops.
const WINDOW: (usize, usize) = (1_000, 3_000);

/// The request mix of one stream.
#[derive(Clone, Copy)]
enum Mix {
    /// Single-page migrations, ping-ponging each region between nodes.
    Migrate,
    /// 64-page replications from a source to a destination region.
    Replicate,
}

struct Stream {
    config: MemifConfig,
    /// Requests kept outstanding.
    depth: usize,
    mix: Mix,
    /// Regions used round-robin (more than `depth`, so a region is never
    /// resubmitted while its previous move is still in flight).
    regions: usize,
    /// Tag request `k` with tenant `1 + k % tenants` (0: untagged).
    /// Tenant `t` weighs `3t - 2`; tenant 1 may hold only four requests
    /// in flight, so its excess parks and is re-admitted at retire.
    tenants: u16,
}

/// The simulated application: a closed loop that refills one request
/// per retirement.
struct App {
    memif: Memif,
    hook: Option<HookId>,
    mix: Mix,
    tenants: u16,
    src: Vec<VirtAddr>,
    dst: Vec<VirtAddr>,
    /// Node each migrated region is on (or moving to).
    node: Vec<NodeId>,
    submitted: usize,
    retired: usize,
    total: usize,
    failed: usize,
    counted: Option<u64>,
}

impl App {
    fn submit_next(&mut self, sys: &mut System, sim: &mut Sim<System>) {
        let k = self.submitted;
        self.submitted += 1;
        let r = k % self.src.len();
        let spec = match self.mix {
            Mix::Migrate => {
                let to = if self.node[r] == NodeId(0) {
                    NodeId(1)
                } else {
                    NodeId(0)
                };
                self.node[r] = to;
                MoveSpec::migrate(self.src[r], 1, PAGE, to)
            }
            Mix::Replicate => MoveSpec::replicate(self.src[r], self.dst[r], 64, PAGE),
        };
        let spec = if self.tenants > 0 {
            spec.with_tenant(TenantId(1 + (k % usize::from(self.tenants)) as u16))
        } else {
            spec
        };
        self.memif
            .submit(sys, sim, spec)
            .expect("the window fits the request slots");
    }

    /// The `poll()` wakeup: retire every available completion, refill
    /// the window, sleep again.
    fn wake(&mut self, sys: &mut System, sim: &mut Sim<System>) {
        while let Some(c) = self.memif.retrieve_completed(sys).expect("device open") {
            if !c.status.is_ok() {
                self.failed += 1;
            }
            self.retired += 1;
            if self.retired == WINDOW.0 {
                ALLOCS.with(|n| n.set(0));
                ARMED.with(|a| a.set(true));
            } else if self.retired == WINDOW.1 {
                ARMED.with(|a| a.set(false));
                self.counted = Some(ALLOCS.with(Cell::get));
            }
            if self.submitted < self.total {
                self.submit_next(sys, sim);
            }
        }
        if self.retired < self.total {
            let hook = self.hook.expect("hook registered before the first wakeup");
            self.memif
                .poll_event(sys, sim, SimEvent::Hook { hook, arg: 0 })
                .expect("device open");
        }
    }
}

/// Runs `stream` and returns the allocations counted over the window.
fn allocations_in_window(stream: &Stream) -> u64 {
    run(stream).0
}

/// Runs `stream` and returns the allocations counted over the window
/// and over the whole run.
fn run(stream: &Stream) -> (u64, u64) {
    RUN_ALLOCS.with(|n| n.set(0));
    RUN_ARMED.with(|a| a.set(true));
    let window = run_counted(stream);
    RUN_ARMED.with(|a| a.set(false));
    (window, RUN_ALLOCS.with(Cell::get))
}

fn run_counted(stream: &Stream) -> u64 {
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let space = sys.new_space();
    for t in 1..=stream.tenants {
        sys.qos.register(
            TenantId(t),
            TenantConfig {
                weight: u32::from(t) * 3 - 2,
                inflight_cap: (t == 1).then_some(4),
                ..TenantConfig::default()
            },
        );
    }
    let memif = Memif::open(&mut sys, space, stream.config.clone()).expect("device opens");
    let total = WINDOW.1 + stream.depth;
    sys.device_mut(memif.device())
        .expect("device open")
        .log
        .reserve(total);
    let mut src = Vec::new();
    let mut dst = Vec::new();
    for _ in 0..stream.regions {
        match stream.mix {
            Mix::Migrate => {
                let va = sys.mmap(space, 1, PAGE, NodeId(0)).expect("maps");
                sys.write_user(space, va, &[0xA5; 64]).expect("writable");
                src.push(va);
            }
            Mix::Replicate => {
                let s = sys.mmap(space, 64, PAGE, NodeId(0)).expect("maps");
                sys.write_user(space, s, &[0x5A; 64]).expect("writable");
                src.push(s);
                dst.push(sys.mmap(space, 64, PAGE, NodeId(0)).expect("maps"));
            }
        }
    }
    let app = Rc::new(RefCell::new(App {
        memif,
        hook: None,
        mix: stream.mix,
        tenants: stream.tenants,
        node: vec![NodeId(0); src.len()],
        src,
        dst,
        submitted: 0,
        retired: 0,
        total,
        failed: 0,
        counted: None,
    }));
    let handle = Rc::clone(&app);
    let hook = sys.register_hook(move |sys, sim, _| handle.borrow_mut().wake(sys, sim));
    {
        let mut a = app.borrow_mut();
        a.hook = Some(hook);
        for _ in 0..stream.depth {
            a.submit_next(&mut sys, &mut sim);
        }
        a.memif
            .poll_event(&mut sys, &mut sim, SimEvent::Hook { hook, arg: 0 })
            .expect("device open");
    }
    sim.run(&mut sys);
    let a = app.borrow();
    assert_eq!(a.retired, total, "every request retires");
    assert_eq!(a.failed, 0, "every request succeeds");
    a.counted.expect("the counting window closed")
}

#[test]
fn dense_single_page_migrations_allocate_nothing() {
    let allocs = allocations_in_window(&Stream {
        config: MemifConfig::default(),
        depth: 32,
        mix: Mix::Migrate,
        regions: 64,
        tenants: 0,
    });
    assert_eq!(allocs, 0, "allocations over 2,000 steady-state migrations");
}

#[test]
fn batched_coalesced_replications_allocate_nothing() {
    let allocs = allocations_in_window(&Stream {
        config: MemifConfig {
            batch_max: 16,
            coalesce: true,
            ..MemifConfig::default()
        },
        depth: 16,
        mix: Mix::Replicate,
        regions: 32,
        tenants: 0,
    });
    assert_eq!(
        allocs, 0,
        "allocations over 2,000 steady-state replications"
    );
}

fn two_tenant_qos() -> Stream {
    Stream {
        config: MemifConfig {
            qos: true,
            issue_shards: 2,
            ..MemifConfig::default()
        },
        depth: 32,
        mix: Mix::Migrate,
        regions: 128,
        tenants: 2,
    }
}

#[test]
fn two_tenant_sharded_qos_stays_within_budget() {
    let allocs = allocations_in_window(&two_tenant_qos());
    let per_request = allocs as f64 / (WINDOW.1 - WINDOW.0) as f64;
    assert!(
        per_request <= 0.1,
        "{allocs} allocations over 2,000 QoS requests ({per_request:.3} per request)"
    );
}

#[test]
fn repeated_runs_allocate_identically() {
    let first = run(&two_tenant_qos());
    let second = run(&two_tenant_qos());
    assert!(first.1 > 0, "the whole-run counter is armed");
    assert_eq!(
        first, second,
        "(window, whole-run) allocations of two identical runs"
    );
}
