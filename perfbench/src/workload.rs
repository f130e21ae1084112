//! The benchmark's workloads: inputs generated from the seed, the
//! simulated machine and application they run on, and the checks every
//! run's outputs must pass.
//!
//! Each workload drives the public `memif` API against one
//! [`System`] built on the same machine as the Figure 8 and E17 runs
//! ([`memif_bench::bigfast_topology`] with the KeyStone II cost model).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use memif::{
    Memif, MemifConfig, MemifError, MoveSpec, MoveStatus, NodeId, PageSize, Phase, Sim,
    SimDuration, SimTime, SpaceId, System, TenantConfig, TenantId, VirtAddr,
};
use memif_hwsim::CostModel;

use crate::trace::{Api, Tracer};

const PAGE: PageSize = PageSize::Small4K;
const PAGE_BYTES: u64 = 4096;
/// Tenants of the open-loop workload.
const SMALL: TenantId = TenantId(1);
const BULK: TenantId = TenantId(2);

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 32-deep window of single-page migrations.
    MigrateDense,
    /// Closed loop, 16-deep window of batched 64-page replications.
    ReplicateBatched,
    /// Open loop, two QoS tenants with Poisson arrivals.
    TenantsOpenLoop,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "migrate-4k-dense" => Some(Workload::MigrateDense),
            "replicate-64p-batched" => Some(Workload::ReplicateBatched),
            "tenants-open-loop" => Some(Workload::TenantsOpenLoop),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MigrateDense => "migrate-4k-dense",
            Workload::ReplicateBatched => "replicate-64p-batched",
            Workload::TenantsOpenLoop => "tenants-open-loop",
        }
    }
}

/// Everything one simulated run needs, generated from the seed before
/// timing starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The shape of the run.
    pub shape: Shape,
    /// Pages of filler mapping placed before each region (seeded
    /// virtual and physical layout), per region class.
    pub small_gaps: Vec<u32>,
    /// As `small_gaps`, for the 64-page regions.
    pub bulk_gaps: Vec<u32>,
    /// The requests in submission order.
    pub requests: Rc<[Planned]>,
    /// Region pages whose contents the checks read back.
    pub sample: Vec<(usize, u32)>,
}

/// The fixed parameters of a run.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Device configuration.
    pub config: MemifConfig,
    /// Outstanding requests of a closed loop (`None` = open loop).
    pub window: Option<usize>,
    /// Single-page regions (migrated back and forth).
    pub small_regions: usize,
    /// 64-page region pairs (replicated source → destination).
    pub bulk_regions: usize,
}

/// One request of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Single-page migration or 64-page replication.
    pub bulk: bool,
    /// Index into the region class the request moves.
    pub region: u32,
    /// Arrival time of an open-loop request (closed loops: unused).
    pub due: SimTime,
    /// Closed loops: the application's compute time between the
    /// completion that frees a window slot and this request's
    /// submission (zero for the first window).
    pub think: SimDuration,
}

const BULK_PAGES: u32 = 64;

/// A small deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// A closed-loop region order over `pool` regions in which any `window`
/// consecutive requests name distinct regions, so a region is never
/// resubmitted while its previous move may still be in flight.
fn closed_order(rng: &mut Rng, count: usize, pool: usize, window: usize) -> Vec<u32> {
    assert!(pool > window, "the pool must exceed the window");
    let mut order: Vec<u32> = Vec::with_capacity(count);
    for i in 0..count {
        let recent = &order[i.saturating_sub(window - 1)..i];
        let region = loop {
            let r = rng.below(pool as u64) as u32;
            if !recent.contains(&r) {
                break r;
            }
        };
        order.push(region);
    }
    order
}

fn gaps(rng: &mut Rng, regions: usize) -> Vec<u32> {
    (0..regions).map(|_| rng.below(8) as u32).collect()
}

/// Seeded Poisson arrivals at `rate_per_s` over `span_ns`, with
/// region indices cycling through a seeded permutation of `pool`.
fn poisson(rng: &mut Rng, rate_per_s: f64, span_ns: u64, pool: usize, bulk: bool) -> Vec<Planned> {
    let mut perm: Vec<u32> = (0..pool as u32).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() * mean_gap_ns;
        if t >= span_ns as f64 {
            return out;
        }
        out.push(Planned {
            bulk,
            region: perm[out.len() % pool],
            due: SimTime::from_ns(t as u64),
            think: SimDuration::ZERO,
        });
    }
}

impl Inputs {
    /// The measured inputs of `workload` under `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        match workload {
            Workload::MigrateDense => Self::closed(
                &mut rng,
                Shape {
                    config: MemifConfig::default(),
                    window: Some(32),
                    small_regions: 64,
                    bulk_regions: 0,
                },
                32_768,
                // Long enough that each seed's completion timeline, and so
                // its latency quantiles, is its own; short enough that the
                // window keeps the device saturated.
                10_000.0,
            ),
            Workload::ReplicateBatched => Self::closed(
                &mut rng,
                Shape {
                    config: batched_config(),
                    window: Some(16),
                    small_regions: 0,
                    bulk_regions: 32,
                },
                16_384,
                // Short next to a 16-request batch, so full batches form.
                250.0,
            ),
            Workload::TenantsOpenLoop => {
                // 120k/s small migrations make the median small request
                // queue (at half that rate it sees an idle device, so its
                // p50 is the unloaded service time on every seed), with no
                // growing backlog and no refusals: ~1.5 GB/s offered.
                const SPAN_NS: u64 = 5_000_000_000;
                let shape = Shape {
                    config: MemifConfig {
                        queue_capacity: 256,
                        issue_shards: 2,
                        qos: true,
                        ..batched_config()
                    },
                    window: None,
                    small_regions: 1_024,
                    bulk_regions: 32,
                };
                let mut requests =
                    poisson(&mut rng, 120_000.0, SPAN_NS, shape.small_regions, false);
                requests.extend(poisson(
                    &mut rng,
                    4_000.0,
                    SPAN_NS,
                    shape.bulk_regions,
                    true,
                ));
                requests.sort_by_key(|r| r.due);
                Self::finish(&mut rng, shape, requests)
            }
        }
    }

    /// The reference shape a workload's sim throughput is anchored to:
    /// the E17b macro row (`e17_simspeed`), whose region pool equals the
    /// window and is used round-robin with no filler between regions.
    /// `None` for workloads without a committed reference.
    pub fn anchor(workload: Workload) -> Option<(Self, &'static str)> {
        let (shape, count, reference) = match workload {
            // E17b "migrate 4K x 1 page x16384": 0.75 GB/s, as are the
            // million-request E17c row and `fig8_throughput --huge`.
            Workload::MigrateDense => (
                Shape {
                    config: MemifConfig::default(),
                    window: Some(32),
                    small_regions: 32,
                    bulk_regions: 0,
                },
                16_384,
                "0.75",
            ),
            // E17b "replicate 4K x 64, batch 16 x1024": 2.97 GB/s.
            Workload::ReplicateBatched => (
                Shape {
                    config: batched_config(),
                    window: Some(16),
                    small_regions: 0,
                    bulk_regions: 16,
                },
                1_024,
                "2.97",
            ),
            Workload::TenantsOpenLoop => return None,
        };
        let bulk = shape.bulk_regions > 0;
        let pool = shape.small_regions.max(shape.bulk_regions);
        let requests: Vec<Planned> = (0..count)
            .map(|i| Planned {
                bulk,
                region: (i % pool) as u32,
                due: SimTime::ZERO,
                think: SimDuration::ZERO,
            })
            .collect();
        let inputs = Inputs {
            small_gaps: vec![0; shape.small_regions],
            bulk_gaps: vec![0; shape.bulk_regions],
            shape,
            requests: requests.into(),
            sample: Vec::new(),
        };
        Some((inputs, reference))
    }

    /// A closed loop of `count` requests whose refills each follow an
    /// exponentially distributed application compute time of mean
    /// `think_mean_ns`.
    fn closed(rng: &mut Rng, shape: Shape, count: usize, think_mean_ns: f64) -> Self {
        let bulk = shape.bulk_regions > 0;
        let pool = shape.small_regions.max(shape.bulk_regions);
        let window = shape.window.expect("closed loop");
        let requests = closed_order(rng, count, pool, window)
            .into_iter()
            .enumerate()
            .map(|(i, region)| Planned {
                bulk,
                region,
                due: SimTime::ZERO,
                think: if i < window {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_ns((-rng.unit().ln() * think_mean_ns) as u64 + 1)
                },
            })
            .collect();
        Self::finish(rng, shape, requests)
    }

    fn finish(rng: &mut Rng, shape: Shape, requests: Vec<Planned>) -> Self {
        let small_gaps = gaps(rng, shape.small_regions);
        let bulk_gaps = gaps(rng, shape.bulk_regions);
        // Every single-page region up to 64 of them, and 16 pages of the
        // 64-page regions (the rest stay unwritten, so copies of them
        // cost the host no byte traffic, as in the E17b rows).
        let mut sample: Vec<(usize, u32)> = if shape.small_regions <= 64 {
            (0..shape.small_regions).map(|r| (r, 0)).collect()
        } else {
            (0..64)
                .map(|_| (rng.below(shape.small_regions as u64) as usize, 0))
                .collect()
        };
        for _ in (0..16).filter(|_| shape.bulk_regions > 0) {
            let region = rng.below(shape.bulk_regions as u64) as usize;
            sample.push((
                shape.small_regions + region,
                rng.below(u64::from(BULK_PAGES)) as u32,
            ));
        }
        sample.sort_unstable();
        sample.dedup();
        Inputs {
            shape,
            small_gaps,
            bulk_gaps,
            requests: requests.into(),
            sample,
        }
    }
}

fn batched_config() -> MemifConfig {
    MemifConfig {
        batch_max: 16,
        coalesce: true,
        ..MemifConfig::default()
    }
}

/// A mapped region of the application.
#[derive(Debug, Clone, Copy)]
struct Region {
    src: VirtAddr,
    /// Replication destination (bulk regions only).
    dst: VirtAddr,
    /// Node the region's last submitted migration targets.
    node: NodeId,
    /// Node the region's last successful migration moved it to.
    settled: NodeId,
}

fn other_node(node: NodeId) -> NodeId {
    if node == NodeId(0) {
        NodeId(1)
    } else {
        NodeId(0)
    }
}

/// The simulated application: submits the schedule, sleeps in `poll()`
/// and retrieves completions.
pub struct App {
    memif: Memif,
    small: Vec<Region>,
    bulk: Vec<Region>,
    requests: Rc<[Planned]>,
    window: Option<usize>,
    /// Index of the next request to submit.
    next: usize,
    /// Refills waiting out their compute time.
    thinking: usize,
    /// Compute times of refills `drain` found, for `pump` to schedule.
    refills: Vec<SimDuration>,
    /// Requests that reached a terminal status (or were refused).
    terminal: usize,
    /// Terminal status per cookie; `None` until it arrives.
    statuses: Vec<Option<MoveStatus>>,
    /// Cookie of each request id (ids are dense from 0).
    cookie_of: Vec<u32>,
    /// Submissions refused with `Exhausted` (open loop).
    refused: u64,
    /// Bytes of successful completions, as the application counts them.
    bytes_done: u64,
    /// Completion instant of the last request.
    finished_at: SimTime,
    tracer: Option<Rc<RefCell<Tracer>>>,
}

impl App {
    fn submit_one(&mut self, sys: &mut System, sim: &mut Sim<System>) {
        let cookie = self.next;
        self.next += 1;
        let plan = self.requests[cookie];
        let spec = if plan.bulk {
            let r = self.bulk[plan.region as usize];
            MoveSpec::replicate(r.src, r.dst, BULK_PAGES, PAGE)
        } else {
            let r = self.small[plan.region as usize];
            MoveSpec::migrate(r.src, 1, PAGE, other_node(r.node))
        }
        .with_user_data(cookie as u64);
        let spec = match (self.window, plan.bulk) {
            (Some(_), _) => spec,
            (None, true) => spec.with_tenant(BULK),
            (None, false) => spec.with_tenant(SMALL),
        };
        let started = self.tracer.as_ref().map(|_| Instant::now());
        let result = self.memif.submit(sys, sim, spec);
        if let (Some(t), Some(started)) = (&self.tracer, started) {
            t.borrow_mut().api(Api::Submit, started, cookie as u64);
        }
        match result {
            Ok((id, _cpu)) => {
                let id = usize::try_from(id.0).expect("request ids fit usize");
                assert_eq!(id, self.cookie_of.len(), "request ids are dense");
                self.cookie_of.push(cookie as u32);
                if !plan.bulk {
                    self.small[plan.region as usize].node = spec.dst_node;
                }
            }
            Err(MemifError::Exhausted) => {
                self.refused += 1;
                self.terminal += 1;
            }
            Err(e) => panic!("submission rejected: {e}"),
        }
    }

    /// Retrieves every available completion; a closed loop refills the
    /// window once per completion.
    fn drain(&mut self, sys: &mut System, sim: &mut Sim<System>) {
        loop {
            let started = self.tracer.as_ref().map(|_| Instant::now());
            let completion = self.memif.retrieve_completed(sys).expect("device open");
            if let (Some(t), Some(started)) = (&self.tracer, started) {
                let cookie = completion.map_or(u64::MAX, |c| c.user_data);
                t.borrow_mut().api(Api::Retrieve, started, cookie);
            }
            let Some(c) = completion else {
                return;
            };
            let slot = &mut self.statuses[c.user_data as usize];
            assert!(slot.is_none(), "cookie {} completed twice", c.user_data);
            *slot = Some(c.status.0);
            if c.status.is_ok() {
                self.bytes_done += c.bytes;
                let plan = self.requests[c.user_data as usize];
                if !plan.bulk {
                    let r = &mut self.small[plan.region as usize];
                    r.settled = other_node(r.settled);
                }
            }
            self.terminal += 1;
            self.finished_at = sim.now();
            let refill = self.next + self.thinking;
            if self.window.is_some() && refill < self.requests.len() {
                let think = self.requests[refill].think;
                if think == SimDuration::ZERO {
                    self.submit_one(sys, sim);
                } else {
                    self.thinking += 1;
                    self.refills.push(think);
                }
            }
        }
    }

    fn all_terminal(&self) -> bool {
        self.terminal == self.requests.len()
    }
}

/// The application's `poll()` wake-up: drain, then sleep again unless
/// every request has reached a terminal status.
fn pump(app: Rc<RefCell<App>>, sys: &mut System, sim: &mut Sim<System>) {
    let mut a = app.borrow_mut();
    a.drain(sys, sim);
    for think in a.refills.drain(..) {
        let app = Rc::clone(&app);
        sim.schedule_after(
            think,
            memif::SimEvent::call(move |sys, sim| {
                let mut a = app.borrow_mut();
                a.thinking -= 1;
                a.submit_one(sys, sim);
            }),
        );
    }
    if a.all_terminal() {
        return;
    }
    let memif = a.memif;
    let started = a.tracer.as_ref().map(|_| Instant::now());
    let tracer = a.tracer.clone();
    drop(a);
    let again = Rc::clone(&app);
    memif
        .poll(sys, sim, move |sys, sim| pump(again, sys, sim))
        .expect("device open");
    if let (Some(t), Some(started)) = (tracer, started) {
        t.borrow_mut().api(Api::Poll, started, u64::MAX);
    }
}

/// Open-loop arrival `k`: submit it, then schedule arrival `k + 1`.
fn arrive(app: Rc<RefCell<App>>, sys: &mut System, sim: &mut Sim<System>) {
    let mut a = app.borrow_mut();
    a.submit_one(sys, sim);
    let Some(next) = a.requests.get(a.next) else {
        return;
    };
    let due = next.due;
    drop(a);
    sim.schedule_at(
        due,
        memif::SimEvent::call(move |sys, sim| arrive(app, sys, sim)),
    );
}

/// A machine ready to run one schedule.
pub struct Machine {
    /// The simulated machine.
    pub sys: System,
    /// Its event queue.
    pub sim: Sim<System>,
    /// The application.
    pub app: Rc<RefCell<App>>,
    space: SpaceId,
    /// Host time spent building the machine, mapping and filling the
    /// regions and opening the device.
    pub setup_ns: u64,
}

/// Per-page fill pattern of region `region`, page `page`.
fn pattern(region: usize, page: u32) -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut x = (region as u64) << 20 | u64::from(page) | 1 << 63;
    for chunk in out.chunks_mut(8) {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    out
}

impl Machine {
    /// Builds the machine, maps and fills the regions, opens the device
    /// (the work `setup_s` times), then the application.
    pub fn new(inputs: &Inputs, tracer: Option<Rc<RefCell<Tracer>>>) -> Self {
        let started = Instant::now();
        let topo = memif_bench::bigfast_topology();
        let mut sys = System::with_profile(topo, CostModel::keystone_ii());
        let space = sys.new_space();
        let shape = &inputs.shape;
        let memif = Memif::open(&mut sys, space, shape.config.clone()).expect("device opens");
        if shape.window.is_none() {
            sys.qos.register(
                SMALL,
                TenantConfig {
                    weight: 4,
                    ..TenantConfig::default()
                },
            );
            sys.qos.register(
                BULK,
                TenantConfig {
                    weight: 1,
                    inflight_cap: Some(4),
                    ..TenantConfig::default()
                },
            );
        }
        let map = |sys: &mut System, gap: u32, pages: u32, node: NodeId| {
            if gap > 0 {
                sys.mmap(space, gap, PAGE, node).expect("filler maps");
            }
            sys.mmap(space, pages, PAGE, node).expect("region maps")
        };
        let small: Vec<Region> = inputs
            .small_gaps
            .iter()
            .map(|&gap| Region {
                src: map(&mut sys, gap, 1, NodeId(0)),
                dst: VirtAddr::new(0),
                node: NodeId(0),
                settled: NodeId(0),
            })
            .collect();
        let bulk: Vec<Region> = inputs
            .bulk_gaps
            .iter()
            .map(|&gap| Region {
                src: map(&mut sys, gap, BULK_PAGES, NodeId(0)),
                dst: map(&mut sys, 0, BULK_PAGES, NodeId(1)),
                node: NodeId(0),
                settled: NodeId(0),
            })
            .collect();
        for &(region, page) in &inputs.sample {
            let base = small
                .get(region)
                .unwrap_or_else(|| &bulk[region - small.len()]);
            let va = base.src.offset(u64::from(page) * PAGE_BYTES);
            sys.write_user(space, va, &pattern(region, page))
                .expect("region writable");
        }
        let setup_ns = started.elapsed().as_nanos() as u64;
        // The application's own per-request bookkeeping is not set-up
        // of the system under test.
        let count = inputs.requests.len();
        let app = App {
            memif,
            small,
            bulk,
            requests: Rc::clone(&inputs.requests),
            window: shape.window,
            next: 0,
            thinking: 0,
            refills: Vec::with_capacity(shape.window.unwrap_or(0)),
            terminal: 0,
            statuses: vec![None; count],
            cookie_of: Vec::with_capacity(count),
            refused: 0,
            bytes_done: 0,
            finished_at: SimTime::ZERO,
            tracer,
        };
        Machine {
            sys,
            sim: Sim::new(),
            app: Rc::new(RefCell::new(app)),
            space,
            setup_ns,
        }
    }

    /// Submits the first window (closed loop) or schedules the first
    /// arrival (open loop), and arms the application's `poll()`.
    pub fn start(&mut self) {
        let window = self.app.borrow().window;
        match window {
            Some(w) => {
                let mut a = self.app.borrow_mut();
                for _ in 0..w.min(a.requests.len()) {
                    a.submit_one(&mut self.sys, &mut self.sim);
                }
            }
            None => {
                let due = self.app.borrow().requests[0].due;
                let app = Rc::clone(&self.app);
                self.sim.schedule_at(
                    due,
                    memif::SimEvent::call(move |sys, sim| arrive(app, sys, sim)),
                );
            }
        }
        pump(Rc::clone(&self.app), &mut self.sys, &mut self.sim);
    }

    /// Runs the simulation to the end.
    pub fn run(&mut self) {
        self.sim.run(&mut self.sys);
    }

    /// The open device's id.
    pub fn device(&self) -> memif::DeviceId {
        self.app.borrow().memif.device()
    }

    /// Cookie of request id `id`.
    pub fn cookie_of(&self, id: u64) -> u64 {
        u64::from(self.app.borrow().cookie_of[id as usize])
    }

    /// Checks the run's outputs and computes its simulated metrics.
    ///
    /// # Errors
    ///
    /// A description of the first failed check.
    pub fn finish(&mut self, inputs: &Inputs) -> Result<Outcome, String> {
        let app = self.app.borrow();
        let device = self.sys.device(app.memif.device()).ok_or("device closed")?;
        let stats = &device.stats;
        let offered = app.requests.len();
        if !app.all_terminal() || app.next != offered {
            return Err(format!(
                "{} of {offered} requests reached a terminal status",
                app.terminal
            ));
        }
        let mut failed = app.refused;
        for (cookie, status) in app.statuses.iter().enumerate() {
            match status {
                Some(MoveStatus::Done) => {}
                Some(_) if app.window.is_none() => failed += 1,
                Some(other) => return Err(format!("closed-loop request {cookie} ended {other:?}")),
                None if app.window.is_none() => {} // refused at submit
                None => return Err(format!("request {cookie} has no terminal status")),
            }
        }
        let terminal_seen = app.statuses.iter().filter(|s| s.is_some()).count() as u64;
        if terminal_seen + app.refused != offered as u64 {
            return Err("terminal statuses do not match offered requests".into());
        }
        if app.bytes_done != stats.bytes_moved {
            return Err(format!(
                "application counted {} bytes, driver {}",
                app.bytes_done, stats.bytes_moved
            ));
        }
        if device.log.len() != app.cookie_of.len() {
            return Err("driver completion log disagrees with submissions".into());
        }
        // Placement: every migrated region sits where its last
        // successful move took it, which in a closed loop is its last
        // target.
        for (i, r) in app.small.iter().enumerate() {
            if app.window.is_some() && r.node != r.settled {
                return Err(format!("region {i} did not reach node {}", r.node.0));
            }
            let pa = self
                .sys
                .space(self.space)
                .translate(r.src)
                .ok_or("region unmapped")?;
            if self.sys.node_of(pa) != Some(r.settled) {
                return Err(format!("region {i} is not on node {}", r.settled.0));
            }
        }
        // Contents: sampled pages read back their fill pattern, and a
        // replicated page's destination equals its source.
        let (small_len, bulk) = (app.small.len(), app.bulk.clone());
        let smalls: Vec<VirtAddr> = app.small.iter().map(|r| r.src).collect();
        let moved_bulk: Vec<bool> = {
            let mut moved = vec![false; bulk.len()];
            for p in app.requests.iter().filter(|p| p.bulk) {
                moved[p.region as usize] = true;
            }
            moved
        };
        let sim_metrics = self.sim_metrics(&app, inputs);
        drop(app);
        for &(region, page) in &inputs.sample {
            let mut got = [0u8; 64];
            let want = pattern(region, page);
            let off = u64::from(page) * PAGE_BYTES;
            if region < small_len {
                self.read(smalls[region].offset(off), &mut got)?;
                if got != want {
                    return Err(format!("migrated region {region} lost its contents"));
                }
            } else {
                let r = bulk[region - small_len];
                self.read(r.src.offset(off), &mut got)?;
                let mut dst = [0u8; 64];
                self.read(r.dst.offset(off), &mut dst)?;
                if got != want || (moved_bulk[region - small_len] && dst != got) {
                    return Err(format!("replica of region {region} page {page} differs"));
                }
            }
        }
        Ok(Outcome {
            offered: offered as u64,
            completed: terminal_seen,
            failed,
            sim: sim_metrics,
        })
    }

    fn read(&mut self, va: VirtAddr, buf: &mut [u8]) -> Result<(), String> {
        self.sys
            .read_user(self.space, va, buf)
            .map_err(|f| format!("read-back faulted: {f:?}"))
    }

    fn sim_metrics(&self, app: &App, inputs: &Inputs) -> SimMetrics {
        let sys = &self.sys;
        let device = sys.device(app.memif.device()).expect("device open");
        let stats = &device.stats;
        let reqs = device.log.len().max(1) as f64;
        let start = inputs.requests.first().map_or(SimTime::ZERO, |p| p.due);
        let wall_ns = app.finished_at.since(start).as_ns().max(1) as f64;
        let bytes = stats.bytes_moved as f64;
        let pages = (stats.bytes_moved / PAGE_BYTES).max(1) as f64;

        // Latency: submit (= due, the generator runs exactly on time in
        // simulated time) to notify. In the open loop the small tenant
        // is the latency-sensitive one; closed loops have one tenant,
        // which is also the bulk one.
        let mut small_lat = Vec::with_capacity(device.log.len());
        let mut bulk_lat = Vec::new();
        for rec in &device.log {
            let plan = inputs.requests[app.cookie_of[rec.req_id as usize] as usize];
            let lat = rec.completed_at.since(rec.submitted_at).as_ns();
            if app.window.is_some() {
                small_lat.push(lat);
                bulk_lat.push(lat);
            } else if plan.bulk {
                bulk_lat.push(lat);
            } else {
                small_lat.push(lat);
            }
        }
        let us = |ns: u64| ns as f64 / 1e3;
        let per_req = |d: memif::SimDuration| d.as_ns() as f64 / reqs;
        let phase = |p: Phase| per_req(stats.phases.get(p));
        let dma = sys.dma.stats();
        let tlb = sys.space(self.space).tlb().stats();
        let worker = |i: usize| sys.meter.worker_busy(i).as_ns() as f64 / wall_ns;
        let tenant_bytes =
            |t: TenantId| stats.tenant_bytes_moved.get(&t.0).copied().unwrap_or(0) as f64;
        let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let admitted = (stats.submitted - stats.requests_parked + stats.requests_readmitted) as f64;
        let fields = f64::from(sys.cost.dma_desc_fields);
        let descriptor_fields = stats.descriptors_written as f64 * fields;
        let saved = stats.descriptor_writes_saved as f64;
        let small = tenant_bytes(SMALL);
        let metrics = [
            ("sim_gbps", bytes / wall_ns, "GB/s"),
            ("sim_lat_p50_us", us(quantile(&mut small_lat, 0.50)), "us"),
            ("sim_lat_p99_us", us(quantile(&mut small_lat, 0.99)), "us"),
            (
                "sim_bulk_lat_p99_us",
                us(quantile(&mut bulk_lat, 0.99)),
                "us",
            ),
            (
                "sim_cpu_us_per_mb",
                us(sys.meter.cpu_busy().as_ns()) / (bytes / 1e6),
                "us/MB",
            ),
            (
                "core.driver.kthread.wakeups_per_req",
                stats.kthread_wakeups as f64 / reqs,
                "count",
            ),
            ("core.driver.sim_prep_ns_per_req", phase(Phase::Prep), "ns"),
            (
                "core.driver.sim_remap_ns_per_req",
                phase(Phase::Remap),
                "ns",
            ),
            (
                "core.driver.sim_dma_cfg_ns_per_req",
                phase(Phase::DmaConfig),
                "ns",
            ),
            (
                "core.driver.sim_release_ns_per_req",
                phase(Phase::Release),
                "ns",
            ),
            (
                "core.driver.sim_notify_ns_per_req",
                phase(Phase::Notify),
                "ns",
            ),
            (
                "core.driver.sim_iface_ns_per_req",
                phase(Phase::Interface),
                "ns",
            ),
            // The engine's busy time: copies are flows, not a driver phase.
            (
                "hwsim.dma.sim_copy_ns_per_req",
                per_req(sys.meter.busy(memif::Context::DmaEngine)),
                "ns",
            ),
            (
                "hwsim.dma.reuse_config_frac",
                frac(
                    dma.reuse_configs as f64,
                    (dma.reuse_configs + dma.full_configs) as f64,
                ),
                "fraction",
            ),
            (
                "hwsim.dma.transfers_per_req",
                dma.transfers as f64 / reqs,
                "count",
            ),
            (
                "core.driver.descriptors_per_req",
                stats.descriptors_written as f64 / reqs,
                "count",
            ),
            (
                "core.driver.descriptor_writes_saved_frac",
                frac(saved, saved + descriptor_fields),
                "fraction",
            ),
            ("core.driver.pages_per_req", pages / reqs, "count"),
            (
                "mm.tlb.page_flushes_per_page",
                tlb.page_flushes as f64 / pages,
                "count",
            ),
            (
                "mm.tlb.miss_frac",
                frac(tlb.misses as f64, (tlb.hits + tlb.misses) as f64),
                "fraction",
            ),
            (
                "qos.parked_per_admitted",
                frac(stats.requests_parked as f64, admitted),
                "count",
            ),
            (
                "qos.small_byte_share",
                frac(small, small + tenant_bytes(BULK)),
                "fraction",
            ),
            (
                "core.driver.kthread.worker_busy_frac.0",
                worker(0),
                "fraction",
            ),
            (
                "core.driver.kthread.worker_busy_frac.1",
                worker(1),
                "fraction",
            ),
            (
                "core.driver.kthread.deferred_per_req",
                stats.requests_deferred as f64 / reqs,
                "count",
            ),
            (
                "lockfree.kicks_per_submit",
                frac(stats.ioctls as f64, stats.submitted as f64),
                "count",
            ),
            (
                "lockfree.refused_per_offered",
                app.refused as f64 / app.requests.len() as f64,
                "fraction",
            ),
            (
                "hwsim.sim.events_per_req",
                self.sim.executed() as f64 / reqs,
                "count",
            ),
            (
                "hwsim.sim.cancelled_per_executed",
                frac(self.sim.cancelled() as f64, self.sim.executed() as f64),
                "fraction",
            ),
            (
                "hwsim.sim.peak_pending",
                self.sim.peak_pending() as f64,
                "count",
            ),
        ];
        metrics
            .into_iter()
            .map(|(name, value, unit)| (name, (value, unit)))
            .collect()
    }
}

/// The checked result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Requests offered.
    pub offered: u64,
    /// Requests the driver retired (offered minus refused).
    pub completed: u64,
    /// Requests refused or terminally failed.
    pub failed: u64,
    /// Simulated metrics, end-to-end and per layer (deterministic for
    /// a given seed).
    pub sim: SimMetrics,
}

/// Simulated metrics by name: value and unit.
pub type SimMetrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}
