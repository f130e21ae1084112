//! Bandwidth-shared data flows.
//!
//! Memory traffic on the simulated SoC — DMA transfers, CPU streaming
//! loads/stores — contends for the finite bandwidth of each memory node
//! and of the DMA engine. This module models each ongoing transfer as a
//! *flow* over a set of *resources*; concurrently active flows share each
//! resource equally, and a flow progresses at the minimum of its own
//! demand and its fair share on every resource it touches (an
//! equal-share approximation of max-min fairness, adequate at the small
//! flow counts the experiments generate).
//!
//! [`FlowNet`] is the pure fluid model; [`FlowSystem`] couples it to the
//! DES, rescheduling the single completion timer whenever the contention
//! picture changes.
//!
//! Both keep their flows in a vector in creation order and reuse their
//! working buffers (per-resource counts, finished lists, payloads ready
//! to dispatch), and a flow's [`Route`] is stored inline, so starting,
//! advancing and retiring flows allocates nothing once the buffers have
//! reached their working size.

use crate::sim::{EventId, EventWorld, Sim};
use crate::time::{SimDuration, SimTime};

/// Handle to a bandwidth resource (a memory node's bus, the DMA engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(usize);

impl ResourceId {
    /// The resource's stable index within its network (used by event
    /// logs and diagnostics).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Handle to an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Longest route a flow can take: a transfer controller's pipe plus a
/// source and a destination bus.
pub const MAX_ROUTE: usize = 3;

/// The resources one flow occupies, stored inline (no heap). Derefs to
/// a slice of at most [`MAX_ROUTE`] resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    len: u8,
    hops: [ResourceId; MAX_ROUTE],
}

impl Route {
    /// A one-resource route.
    #[must_use]
    pub const fn new(first: ResourceId) -> Self {
        Route {
            len: 1,
            hops: [first; MAX_ROUTE],
        }
    }

    /// Appends a resource.
    ///
    /// # Panics
    ///
    /// Panics if the route already holds [`MAX_ROUTE`] resources.
    pub fn push(&mut self, r: ResourceId) {
        assert!(
            usize::from(self.len) < MAX_ROUTE,
            "a route holds at most {MAX_ROUTE} resources"
        );
        self.hops[usize::from(self.len)] = r;
        self.len += 1;
    }

    /// The route over `resources`, in order.
    ///
    /// # Panics
    ///
    /// Panics on an empty list or one longer than [`MAX_ROUTE`].
    #[must_use]
    pub fn from_slice(resources: &[ResourceId]) -> Self {
        let (&first, rest) = resources
            .split_first()
            .expect("flow needs at least one resource");
        let mut route = Route::new(first);
        for &r in rest {
            route.push(r);
        }
        route
    }
}

impl std::ops::Deref for Route {
    type Target = [ResourceId];

    fn deref(&self) -> &[ResourceId] {
        &self.hops[..usize::from(self.len)]
    }
}

/// Bytes below which a flow counts as finished (absorbs the ±1 ns
/// rounding of completion times).
const EPSILON_BYTES: f64 = 0.5;

#[derive(Debug)]
struct Resource {
    name: String,
    capacity_gbps: f64,
}

#[derive(Debug)]
struct Flow {
    id: u64,
    route: Route,
    remaining_bytes: f64,
    /// Current progress rate in bytes/ns (== GB/s numerically).
    rate: f64,
    demand_gbps: f64,
}

/// The pure fluid-flow bandwidth model (no event coupling).
///
/// # Examples
///
/// ```
/// use memif_hwsim::{FlowNet, SimTime};
///
/// let mut net = FlowNet::new();
/// let bus = net.add_resource("ddr", 2.0); // 2 GB/s
/// net.start(SimTime::ZERO, &[bus], 2_000, 100.0);
/// net.start(SimTime::ZERO, &[bus], 2_000, 100.0);
/// // Two equal flows share the bus: each finishes after 2000 ns.
/// assert_eq!(net.next_completion(SimTime::ZERO), Some(SimTime::from_ns(2_000)));
/// ```
#[derive(Debug, Default)]
pub struct FlowNet {
    resources: Vec<Resource>,
    /// Active flows in creation (= id) order, so progress and delivered
    /// bytes accumulate in the same order on every run.
    flows: Vec<Flow>,
    next_flow: u64,
    last_advance: SimTime,
    /// Total bytes ever delivered, per resource (utilization accounting).
    delivered: Vec<f64>,
    /// Active flows per resource; rebuilt by every rate recomputation.
    sharers: Vec<usize>,
    /// The last [`FlowNet::take_finished`] result.
    finished: Vec<FlowId>,
}

impl FlowNet {
    /// An empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with `capacity_gbps` gigabytes per second.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity_gbps: f64) -> ResourceId {
        assert!(capacity_gbps > 0.0, "resource capacity must be positive");
        self.resources.push(Resource {
            name: name.into(),
            capacity_gbps,
        });
        self.delivered.push(0.0);
        self.sharers.push(0);
        ResourceId(self.resources.len() - 1)
    }

    /// Resource name (diagnostics).
    #[must_use]
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resources[r.0].name
    }

    /// Current capacity of resource `r` in GB/s.
    #[must_use]
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.resources[r.0].capacity_gbps
    }

    /// Changes the capacity of resource `r` at instant `now` (a bandwidth
    /// brownout or its recovery). Flow progress is brought up to `now`
    /// under the old capacity first; every sharing flow then proceeds at
    /// its new rate.
    ///
    /// # Panics
    ///
    /// Panics if the new capacity is not strictly positive.
    pub fn set_capacity(&mut self, now: SimTime, r: ResourceId, capacity_gbps: f64) {
        assert!(capacity_gbps > 0.0, "resource capacity must be positive");
        self.advance(now);
        self.resources[r.0].capacity_gbps = capacity_gbps;
        self.recompute_rates();
    }

    /// Starts a flow of `bytes` over `resources`, self-capped at
    /// `demand_gbps`. Progress of all flows is brought up to `now` first.
    ///
    /// # Panics
    ///
    /// Panics on an empty resource list or one longer than
    /// [`MAX_ROUTE`], a non-positive demand, or a resource id from
    /// another network.
    pub fn start(
        &mut self,
        now: SimTime,
        resources: &[ResourceId],
        bytes: u64,
        demand_gbps: f64,
    ) -> FlowId {
        let route = Route::from_slice(resources);
        assert!(demand_gbps > 0.0, "flow demand must be positive");
        for r in resources {
            assert!(r.0 < self.resources.len(), "unknown resource");
        }
        self.advance(now);
        let id = self.next_flow;
        self.next_flow += 1;
        self.flows.push(Flow {
            id,
            route,
            remaining_bytes: bytes as f64,
            rate: 0.0,
            demand_gbps,
        });
        self.recompute_rates();
        FlowId(id)
    }

    /// Removes a flow before completion (e.g. an aborted DMA transfer).
    /// Returns the bytes that had not yet been moved, or `None` if the
    /// flow no longer exists.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> Option<u64> {
        self.advance(now);
        let pos = self.flows.binary_search_by_key(&id.0, |f| f.id).ok()?;
        let flow = self.flows.remove(pos);
        self.recompute_rates();
        Some(flow.remaining_bytes.max(0.0).round() as u64)
    }

    /// Number of active flows.
    #[must_use]
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Drops every active flow without crediting further progress
    /// (simulated crash: in-flight data vanishes). Resources, their
    /// capacities, and delivered-byte accounting survive.
    pub fn drop_all_flows(&mut self, now: SimTime) {
        self.advance(now);
        self.flows.clear();
    }

    /// Advances all flows to `now`, removes the finished ones, and
    /// returns their ids in creation order.
    pub fn take_finished(&mut self, now: SimTime) -> &[FlowId] {
        self.advance(now);
        let finished = &mut self.finished;
        finished.clear();
        self.flows.retain(|f| {
            let done = f.remaining_bytes <= EPSILON_BYTES;
            if done {
                finished.push(FlowId(f.id));
            }
            !done
        });
        if !self.finished.is_empty() {
            self.recompute_rates();
        }
        &self.finished
    }

    /// The earliest instant at which some flow completes, if any flow is
    /// active.
    #[must_use]
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        self.flows
            .iter()
            .map(|f| {
                if f.remaining_bytes <= EPSILON_BYTES {
                    0
                } else {
                    // rate > 0: every flow has positive demand and every
                    // resource positive capacity.
                    (f.remaining_bytes / f.rate).ceil() as u64
                }
            })
            .min()
            .map(|eta| now + SimDuration::from_ns(eta))
    }

    /// Total bytes delivered through resource `r` so far.
    #[must_use]
    pub fn delivered_bytes(&self, r: ResourceId) -> f64 {
        self.delivered[r.0]
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_ns() as f64;
        self.last_advance = self.last_advance.max(now);
        if dt <= 0.0 {
            return;
        }
        for flow in &mut self.flows {
            let moved = (flow.rate * dt).min(flow.remaining_bytes);
            flow.remaining_bytes -= moved;
            for r in flow.route.iter() {
                self.delivered[r.0] += moved;
            }
        }
    }

    fn recompute_rates(&mut self) {
        let sharers = &mut self.sharers;
        sharers.fill(0);
        for flow in &self.flows {
            for r in flow.route.iter() {
                sharers[r.0] += 1;
            }
        }
        for flow in &mut self.flows {
            let share = flow
                .route
                .iter()
                .map(|r| self.resources[r.0].capacity_gbps / sharers[r.0] as f64)
                .fold(f64::INFINITY, f64::min);
            flow.rate = share.min(flow.demand_gbps);
        }
    }
}

/// [`FlowNet`] wired into the DES: every flow carries a typed completion
/// payload, and the single pending timer is rescheduled whenever flows
/// start, finish, or are cancelled.
///
/// `W` is the experiment's world type. The system stores a plain function
/// pointer that constructs the world's "flow tick" event, so its timer
/// can be scheduled without capturing code; the world's dispatcher routes
/// that tick back into [`FlowSystem::on_tick`], which hands each finished
/// flow's payload to [`EventWorld::dispatch`] *synchronously and in flow
/// creation order* (so same-instant completions interleave exactly like
/// direct calls would, and a logging dispatcher still sees them all).
pub struct FlowSystem<W: EventWorld> {
    net: FlowNet,
    /// Completion payload of every active flow, in creation (= id)
    /// order — the same order as the net's flows.
    payloads: Vec<(u64, W::Event)>,
    /// Scratch for [`FlowSystem::on_tick`]: the payloads that stay.
    kept: Vec<(u64, W::Event)>,
    /// Scratch for [`FlowSystem::on_tick`]: the payloads to dispatch.
    ready: Vec<W::Event>,
    timer: Option<EventId>,
    tick: fn() -> W::Event,
}

impl<W: EventWorld> std::fmt::Debug for FlowSystem<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowSystem")
            .field("active", &self.net.active())
            .field("armed", &self.timer.is_some())
            .finish()
    }
}

impl<W: EventWorld> FlowSystem<W> {
    /// Creates a flow system. `tick` constructs the world event that the
    /// world's dispatcher must route to [`FlowSystem::on_tick`].
    pub fn new(tick: fn() -> W::Event) -> Self {
        FlowSystem {
            net: FlowNet::new(),
            payloads: Vec::new(),
            kept: Vec::new(),
            ready: Vec::new(),
            timer: None,
            tick,
        }
    }

    /// Registers a bandwidth resource.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity_gbps: f64) -> ResourceId {
        self.net.add_resource(name, capacity_gbps)
    }

    /// Read access to the underlying fluid model.
    #[must_use]
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Starts a flow whose completion dispatches `on_complete`.
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`FlowNet::start`].
    pub fn start_flow(
        &mut self,
        sim: &mut Sim<W>,
        resources: &[ResourceId],
        bytes: u64,
        demand_gbps: f64,
        on_complete: W::Event,
    ) -> FlowId {
        let id = self.net.start(sim.now(), resources, bytes, demand_gbps);
        self.payloads.push((id.0, on_complete));
        self.rearm(sim);
        id
    }

    /// Changes a resource's capacity mid-simulation and reschedules the
    /// completion timer: active flows slow down (brownout) or speed up
    /// (recovery) from `sim.now()` onwards.
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`FlowNet::set_capacity`].
    pub fn set_capacity(&mut self, sim: &mut Sim<W>, r: ResourceId, capacity_gbps: f64) {
        self.net.set_capacity(sim.now(), r, capacity_gbps);
        self.rearm(sim);
    }

    /// Cancels a flow; its completion payload is dropped undispatched.
    /// Returns the unmoved bytes, or `None` if the flow had already
    /// completed.
    pub fn cancel_flow(&mut self, sim: &mut Sim<W>, id: FlowId) -> Option<u64> {
        let left = self.net.cancel(sim.now(), id)?;
        if let Ok(pos) = self.payloads.binary_search_by_key(&id.0, |(i, _)| *i) {
            self.payloads.remove(pos);
        }
        self.rearm(sim);
        Some(left)
    }

    /// Drops all volatile flow state after a simulated crash: every
    /// active flow and its pending completion payload vanish and the
    /// completion timer is disarmed. Resources and capacities survive.
    pub fn reset_volatile(&mut self, sim: &mut Sim<W>) {
        self.net.drop_all_flows(sim.now());
        self.payloads.clear();
        if let Some(t) = self.timer.take() {
            sim.cancel(t);
        }
    }

    fn rearm(&mut self, sim: &mut Sim<W>) {
        if let Some(t) = self.timer.take() {
            sim.cancel(t);
        }
        if let Some(at) = self.net.next_completion(sim.now()) {
            self.timer = Some(sim.schedule_at(at, (self.tick)()));
        }
    }

    /// Handles the flow-tick event: collects flows that have finished by
    /// `sim.now()`, rearms the timer, and dispatches each finished flow's
    /// payload in creation order. The world's dispatcher must call this
    /// for the event produced by its `tick` constructor.
    pub fn on_tick(world: &mut W, sim: &mut Sim<W>, accessor: fn(&mut W) -> &mut FlowSystem<W>) {
        let this = accessor(world);
        this.timer = None;
        let mut ready = std::mem::take(&mut this.ready);
        let mut finished = this.net.take_finished(sim.now()).iter().peekable();
        // Both lists are in creation order: one merge pass splits the
        // payloads into those to dispatch and those that stay.
        for (id, ev) in this.payloads.drain(..) {
            while finished.next_if(|f| f.0 < id).is_some() {}
            if finished.next_if_eq(&&FlowId(id)).is_some() {
                ready.push(ev);
            } else {
                this.kept.push((id, ev));
            }
        }
        std::mem::swap(&mut this.payloads, &mut this.kept);
        this.rearm(sim);
        // Borrow of `this` ends here; payloads are dispatched against the
        // full world.
        for ev in ready.drain(..) {
            world.dispatch(sim, ev);
        }
        accessor(world).ready = ready;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_flow_runs_at_demand() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 2.0);
        let t0 = SimTime::ZERO;
        net.start(t0, &[ddr], 2_000, 100.0); // capped by resource
        let eta = net.next_completion(t0).unwrap();
        assert_eq!(eta.as_ns(), 1_000);
        let done = net.take_finished(eta);
        assert_eq!(done.len(), 1);
        assert!((net.delivered_bytes(ddr) - 2_000.0).abs() < 1.0);
    }

    #[test]
    fn demand_caps_below_capacity() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 6.2);
        net.start(SimTime::ZERO, &[ddr], 1_000, 1.0); // 1 GB/s demand
        let eta = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(eta.as_ns(), 1_000);
    }

    #[test]
    fn two_flows_share_equally() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 4.0);
        net.start(SimTime::ZERO, &[ddr], 4_000, 100.0);
        net.start(SimTime::ZERO, &[ddr], 4_000, 100.0);
        // Each runs at 2 GB/s => 2000 ns.
        let eta = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(eta.as_ns(), 2_000);
        assert_eq!(net.take_finished(eta).len(), 2);
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 4.0);
        net.start(SimTime::ZERO, &[ddr], 2_000, 100.0); // finishes first
        net.start(SimTime::ZERO, &[ddr], 4_000, 100.0);
        let t1 = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t1.as_ns(), 1_000); // 2000 bytes at 2 GB/s
        assert_eq!(net.take_finished(t1).len(), 1);
        // Survivor has 2000 bytes left, now at full 4 GB/s: +500 ns.
        let t2 = net.next_completion(t1).unwrap();
        assert_eq!(t2.as_ns(), 1_500);
    }

    #[test]
    fn multi_resource_flow_is_bottlenecked() {
        let mut net = FlowNet::new();
        let slow = net.add_resource("ddr", 6.0);
        let fast = net.add_resource("sram", 24.0);
        let engine = net.add_resource("edma", 5.0);
        net.start(SimTime::ZERO, &[slow, fast, engine], 5_000, 100.0);
        let eta = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(eta.as_ns(), 1_000, "bottlenecked by the 5 GB/s engine");
    }

    #[test]
    fn cancel_returns_unmoved_bytes() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 1.0);
        let id = net.start(SimTime::ZERO, &[ddr], 1_000, 100.0);
        let left = net.cancel(SimTime::from_ns(400), id).unwrap();
        assert_eq!(left, 600);
        assert!(net.next_completion(SimTime::from_ns(400)).is_none());
        assert_eq!(net.cancel(SimTime::from_ns(400), id), None);
    }

    #[test]
    fn capacity_change_rescales_progress() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 2.0);
        assert_eq!(net.capacity(ddr), 2.0);
        net.start(SimTime::ZERO, &[ddr], 4_000, 100.0);
        // Halve the capacity after 1000 ns (2000 bytes done).
        net.set_capacity(SimTime::from_ns(1_000), ddr, 1.0);
        assert_eq!(net.capacity(ddr), 1.0);
        // Remaining 2000 bytes at 1 GB/s: completes at t=3000.
        let eta = net.next_completion(SimTime::from_ns(1_000)).unwrap();
        assert_eq!(eta.as_ns(), 3_000);
    }

    // ---- FlowSystem / DES coupling ----

    struct World {
        flows: FlowSystem<World>,
        completions: Vec<(u64, u64)>, // (flow tag, completion ns)
        chain_resource: Option<ResourceId>,
    }

    enum Ev {
        FlowTick,
        Done(u64),
        DoneThenStart(u64),
        Cancel(FlowId),
        SetCapacity(ResourceId, f64),
    }

    impl EventWorld for World {
        type Event = Ev;
        fn dispatch(&mut self, sim: &mut Sim<Self>, event: Ev) {
            match event {
                Ev::FlowTick => FlowSystem::on_tick(self, sim, |w| &mut w.flows),
                Ev::Done(tag) => self.completions.push((tag, sim.now().as_ns())),
                Ev::DoneThenStart(tag) => {
                    self.completions.push((tag, sim.now().as_ns()));
                    let ddr = self.chain_resource.expect("chain resource set");
                    self.flows
                        .start_flow(sim, &[ddr], 500, 100.0, Ev::Done(tag + 1));
                }
                Ev::Cancel(id) => {
                    let left = self.flows.cancel_flow(sim, id);
                    assert_eq!(left, Some(900));
                }
                Ev::SetCapacity(r, gbps) => self.flows.set_capacity(sim, r, gbps),
            }
        }
    }

    fn world() -> World {
        World {
            flows: FlowSystem::new(|| Ev::FlowTick),
            completions: Vec::new(),
            chain_resource: None,
        }
    }

    #[test]
    fn system_fires_completions_through_des() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world();
        let ddr = w.flows.add_resource("ddr", 2.0);
        w.flows
            .start_flow(&mut sim, &[ddr], 2_000, 100.0, Ev::Done(1));
        w.flows
            .start_flow(&mut sim, &[ddr], 4_000, 100.0, Ev::Done(2));
        sim.run(&mut w);
        // Flow 1: shares 1 GB/s until t=2000 (2000 bytes done).
        // Flow 2: 2000 bytes left at t=2000, then 2 GB/s => t=3000.
        assert_eq!(w.completions, vec![(1, 2_000), (2, 3_000)]);
    }

    #[test]
    fn system_cancel_drops_payload() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world();
        let ddr = w.flows.add_resource("ddr", 1.0);
        let id = w
            .flows
            .start_flow(&mut sim, &[ddr], 1_000, 100.0, Ev::Done(9));
        sim.schedule_at(SimTime::from_ns(100), Ev::Cancel(id));
        sim.run(&mut w);
        assert!(w.completions.is_empty());
    }

    #[test]
    fn system_capacity_change_reschedules_timer() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world();
        let ddr = w.flows.add_resource("ddr", 2.0);
        w.flows
            .start_flow(&mut sim, &[ddr], 4_000, 100.0, Ev::Done(1));
        // Brownout at t=1000 (half speed), recovery at t=2000.
        sim.schedule_at(SimTime::from_ns(1_000), Ev::SetCapacity(ddr, 1.0));
        sim.schedule_at(SimTime::from_ns(2_000), Ev::SetCapacity(ddr, 2.0));
        sim.run(&mut w);
        // 2000 bytes by t=1000, 1000 more by t=2000, last 1000 at 2 GB/s.
        assert_eq!(w.completions, vec![(1, 2_500)]);
    }

    #[test]
    fn completion_payload_can_start_flows() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world();
        let ddr = w.flows.add_resource("ddr", 1.0);
        w.chain_resource = Some(ddr);
        w.flows
            .start_flow(&mut sim, &[ddr], 500, 100.0, Ev::DoneThenStart(1));
        sim.run(&mut w);
        assert_eq!(w.completions, vec![(1, 500), (2, 1_000)]);
    }

    // ---- Differential property against a reference model ----

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Resource capacities of the property runs, GB/s.
    const CAPS: [f64; 4] = [2.0, 5.0, 6.2, 24.0];

    /// The fluid model written the plain way: flows in an ordered map,
    /// routes and per-resource counts in fresh vectors. The production
    /// model must agree with it bit for bit.
    struct RefNet {
        caps: Vec<f64>,
        flows: BTreeMap<u64, RefFlow>,
        next: u64,
        last: u64,
        delivered: Vec<f64>,
    }

    struct RefFlow {
        route: Vec<usize>,
        remaining: f64,
        rate: f64,
        demand: f64,
    }

    impl RefNet {
        fn new() -> Self {
            RefNet {
                caps: CAPS.to_vec(),
                flows: BTreeMap::new(),
                next: 0,
                last: 0,
                delivered: vec![0.0; CAPS.len()],
            }
        }

        fn advance(&mut self, now: u64) {
            let dt = now.saturating_sub(self.last) as f64;
            self.last = self.last.max(now);
            if dt <= 0.0 {
                return;
            }
            for f in self.flows.values_mut() {
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
                for &r in &f.route {
                    self.delivered[r] += moved;
                }
            }
        }

        fn recompute(&mut self) {
            let mut count = vec![0usize; self.caps.len()];
            for f in self.flows.values() {
                for &r in &f.route {
                    count[r] += 1;
                }
            }
            for f in self.flows.values_mut() {
                let share = f
                    .route
                    .iter()
                    .map(|&r| self.caps[r] / count[r] as f64)
                    .fold(f64::INFINITY, f64::min);
                f.rate = share.min(f.demand);
            }
        }

        fn start(&mut self, now: u64, route: &[usize], bytes: u64, demand: f64) -> u64 {
            self.advance(now);
            let id = self.next;
            self.next += 1;
            self.flows.insert(
                id,
                RefFlow {
                    route: route.to_vec(),
                    remaining: bytes as f64,
                    rate: 0.0,
                    demand,
                },
            );
            self.recompute();
            id
        }

        fn cancel(&mut self, now: u64, id: u64) -> Option<u64> {
            self.advance(now);
            let f = self.flows.remove(&id)?;
            self.recompute();
            Some(f.remaining.max(0.0).round() as u64)
        }

        fn set_capacity(&mut self, now: u64, r: usize, cap: f64) {
            self.advance(now);
            self.caps[r] = cap;
            self.recompute();
        }

        fn take_finished(&mut self, now: u64) -> Vec<u64> {
            self.advance(now);
            let done: Vec<u64> = self
                .flows
                .iter()
                .filter(|(_, f)| f.remaining <= EPSILON_BYTES)
                .map(|(id, _)| *id)
                .collect();
            for id in &done {
                self.flows.remove(id);
            }
            if !done.is_empty() {
                self.recompute();
            }
            done
        }

        fn next_completion(&self, now: u64) -> Option<u64> {
            self.flows
                .values()
                .map(|f| {
                    if f.remaining <= EPSILON_BYTES {
                        0
                    } else {
                        (f.remaining / f.rate).ceil() as u64
                    }
                })
                .min()
                .map(|eta| now + eta)
        }
    }

    /// One drawn operation: what to do, three operands, and the gap to
    /// the next operation.
    type RawOp = (u8, u64, u64, u64, u64);

    #[derive(Debug, Clone)]
    enum Op {
        Start {
            route: Vec<usize>,
            bytes: u64,
            demand: f64,
        },
        /// Cancel the `n`-th flow started so far (modulo the count).
        Cancel(u64),
        SetCapacity(usize, f64),
        /// Run to the next completion instant and collect it.
        Tick,
    }

    fn decode((kind, a, b, c, _): RawOp) -> Op {
        match kind {
            0 | 1 => {
                // One to three distinct resources, in index order.
                let mut route: Vec<usize> = (0..CAPS.len()).filter(|r| a >> r & 1 == 1).collect();
                if route.is_empty() {
                    route.push((a % CAPS.len() as u64) as usize);
                }
                route.truncate(MAX_ROUTE);
                Op::Start {
                    route,
                    bytes: 1 + b % 200_000,
                    demand: 0.5 + (c % 100) as f64 / 8.0,
                }
            }
            2 => Op::Cancel(a),
            3 => Op::SetCapacity(
                (a % CAPS.len() as u64) as usize,
                0.25 + (b % 64) as f64 / 4.0,
            ),
            _ => Op::Tick,
        }
    }

    fn ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
        proptest::collection::vec(
            (
                0u8..5,
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                1u64..3_000,
            ),
            1..80,
        )
    }

    /// World of the dispatch-order property: every completion logs its
    /// flow's tag and instant.
    struct PropWorld {
        flows: FlowSystem<PropWorld>,
        res: Vec<ResourceId>,
        ids: Vec<FlowId>,
        log: Vec<(u64, u64)>,
    }

    enum PropEv {
        Tick,
        Done(u64),
        Run(Op),
    }

    impl EventWorld for PropWorld {
        type Event = PropEv;
        fn dispatch(&mut self, sim: &mut Sim<Self>, event: PropEv) {
            match event {
                PropEv::Tick => FlowSystem::on_tick(self, sim, |w| &mut w.flows),
                PropEv::Done(tag) => self.log.push((tag, sim.now().as_ns())),
                PropEv::Run(Op::Start {
                    route,
                    bytes,
                    demand,
                }) => {
                    let route: Vec<ResourceId> = route.iter().map(|&r| self.res[r]).collect();
                    let tag = self.ids.len() as u64;
                    let id = self
                        .flows
                        .start_flow(sim, &route, bytes, demand, PropEv::Done(tag));
                    self.ids.push(id);
                }
                PropEv::Run(Op::Cancel(n)) => {
                    if !self.ids.is_empty() {
                        let id = self.ids[(n % self.ids.len() as u64) as usize];
                        self.flows.cancel_flow(sim, id);
                    }
                }
                PropEv::Run(Op::SetCapacity(r, cap)) => {
                    let r = self.res[r];
                    self.flows.set_capacity(sim, r, cap);
                }
                PropEv::Run(Op::Tick) => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random start / cancel / set-capacity / tick sequences: the
        /// production net reports the same completion instants, the same
        /// finished flows in the same order, the same unmoved bytes on
        /// cancel, and bit-identical delivered bytes per resource as the
        /// reference model.
        #[test]
        fn flownet_matches_reference_model(raw in ops_strategy()) {
            let mut net = FlowNet::new();
            let res: Vec<ResourceId> = CAPS
                .iter()
                .enumerate()
                .map(|(i, &c)| net.add_resource(format!("r{i}"), c))
                .collect();
            let mut reference = RefNet::new();
            let mut ids: Vec<(FlowId, u64)> = Vec::new();
            let mut now = 0u64;
            for op in &raw {
                match decode(*op) {
                    Op::Start { route, bytes, demand } => {
                        let hops: Vec<ResourceId> = route.iter().map(|&r| res[r]).collect();
                        let id = net.start(SimTime::from_ns(now), &hops, bytes, demand);
                        ids.push((id, reference.start(now, &route, bytes, demand)));
                    }
                    Op::Cancel(n) if !ids.is_empty() => {
                        let (id, ref_id) = ids[(n % ids.len() as u64) as usize];
                        prop_assert_eq!(
                            net.cancel(SimTime::from_ns(now), id),
                            reference.cancel(now, ref_id)
                        );
                    }
                    Op::Cancel(_) => {}
                    Op::SetCapacity(r, cap) => {
                        net.set_capacity(SimTime::from_ns(now), res[r], cap);
                        reference.set_capacity(now, r, cap);
                    }
                    Op::Tick => {
                        if let Some(at) = reference.next_completion(reference.last) {
                            now = now.max(at);
                        }
                        let done: Vec<u64> = net
                            .take_finished(SimTime::from_ns(now))
                            .iter()
                            .map(|f| ids.iter().find(|(id, _)| id == f).expect("started").1)
                            .collect();
                        prop_assert_eq!(done, reference.take_finished(now));
                    }
                }
                prop_assert_eq!(
                    net.next_completion(SimTime::from_ns(now)).map(SimTime::as_ns),
                    reference.next_completion(now)
                );
                prop_assert_eq!(net.active(), reference.flows.len());
                for (i, &r) in res.iter().enumerate() {
                    prop_assert_eq!(
                        net.delivered_bytes(r).to_bits(),
                        reference.delivered[i].to_bits()
                    );
                }
                now += op.4;
            }
        }

        /// The same sequences driven through the DES: every completion
        /// payload is dispatched at the reference model's completion
        /// instant, same-instant completions in flow creation order, and
        /// cancelled flows never dispatch.
        #[test]
        fn flow_system_dispatches_like_reference_model(raw in ops_strategy()) {
            let mut sim: Sim<PropWorld> = Sim::new();
            let mut w = PropWorld {
                flows: FlowSystem::new(|| PropEv::Tick),
                res: Vec::new(),
                ids: Vec::new(),
                log: Vec::new(),
            };
            w.res = CAPS
                .iter()
                .enumerate()
                .map(|(i, &c)| w.flows.add_resource(format!("r{i}"), c))
                .collect();
            let mut at = 0u64;
            let mut schedule = Vec::new();
            for op in &raw {
                let op_now = decode(*op);
                sim.schedule_at(SimTime::from_ns(at), PropEv::Run(op_now.clone()));
                schedule.push((at, op_now));
                at += op.4;
            }
            sim.run(&mut w);

            // Reference timeline: completions strictly before an
            // operation's instant happen first; one at the same instant
            // runs after it (the operation was queued earlier). The next
            // completion counts from the model's last advance.
            let mut reference = RefNet::new();
            let mut tags: Vec<u64> = Vec::new();
            let mut expect: Vec<(u64, u64)> = Vec::new();
            let mut drain = |reference: &mut RefNet, tags: &[u64], limit: u64| {
                while let Some(c) = reference
                    .next_completion(reference.last)
                    .filter(|&c| c < limit)
                {
                    for id in reference.take_finished(c) {
                        let tag = tags.iter().position(|&t| t == id).expect("started");
                        expect.push((tag as u64, c));
                    }
                }
            };
            for (now, op) in schedule {
                drain(&mut reference, &tags, now);
                match op {
                    Op::Start { route, bytes, demand } => {
                        tags.push(reference.start(now, &route, bytes, demand));
                    }
                    Op::Cancel(n) if !tags.is_empty() => {
                        reference.cancel(now, tags[(n % tags.len() as u64) as usize]);
                    }
                    Op::SetCapacity(r, cap) => reference.set_capacity(now, r, cap),
                    Op::Cancel(_) | Op::Tick => {}
                }
            }
            drain(&mut reference, &tags, u64::MAX);
            prop_assert_eq!(&w.log, &expect);
            for (i, &r) in w.res.iter().enumerate() {
                prop_assert_eq!(
                    w.flows.net().delivered_bytes(r).to_bits(),
                    reference.delivered[i].to_bits()
                );
            }
        }
    }
}
