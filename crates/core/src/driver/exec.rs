//! Operations 1–3 of Table 1: Prep (gang lookup), Remap, DMA config and
//! launch.

use memif_hwsim::dma::SgSegment;
use memif_hwsim::{CompletionDelivery, Context, Phase, PhysAddr, SimDuration};
use memif_lockfree::{Dequeued, FailReason, MovReq, MoveKind, MoveStatus};
use memif_mm::{PageSize, Pte, VirtAddr};

use crate::config::RaceMode;
use crate::device::{BatchScratch, DeviceId, Inflight, PagePlan, PlanScratch};
use crate::driver::{
    complete, dev, dev_mut, fault, RETRY_BACKOFF, WATCHDOG_FACTOR, WATCHDOG_SLACK,
};
use crate::event::SimEvent;
use crate::system::System;

/// A validated request's execution plan. Its two vectors are drawn from
/// the device's spare pool and ride the in-flight record once the
/// request issues; a plan that goes no further returns them.
#[derive(Debug)]
pub(crate) struct Plan {
    segments: Vec<SgSegment>,
    pages: Vec<PagePlan>,
    page_size: PageSize,
    prep_cost: SimDuration,
    remap_cost: SimDuration,
    /// Whether the plan's segments merge contiguous pages (the device's
    /// `coalesce` setting).
    coalesce: bool,
    /// Segments eliminated by coalescing (0 with coalescing off).
    coalesced_away: u64,
}

impl Plan {
    /// An empty plan over vectors from device `id`'s spare pool.
    fn draw(sys: &mut System, id: DeviceId) -> Plan {
        let spare = &mut dev_mut(sys, id).spare;
        Plan {
            segments: spare.segments(),
            pages: spare.pages(),
            page_size: PageSize::Small4K,
            prep_cost: SimDuration::ZERO,
            remap_cost: SimDuration::ZERO,
            coalesce: false,
            coalesced_away: 0,
        }
    }

    /// Adds one page's copy from `src` to `dst`, coalescing while
    /// planning: with coalescing on, a page whose source **and**
    /// destination both continue the last segment extends it (counted in
    /// `coalesced_away`) instead of opening a descriptor of its own. This
    /// is the greedy left-to-right merge, so it yields the segments a
    /// one-segment-per-page list would coalesce into.
    fn push_segment(&mut self, src: PhysAddr, dst: PhysAddr) {
        let bytes = self.page_size.bytes();
        match self.segments.last_mut() {
            Some(seg)
                if self.coalesce
                    && seg.src.offset(seg.bytes) == src
                    && seg.dst.offset(seg.bytes) == dst =>
            {
                seg.bytes += bytes;
                self.coalesced_away += 1;
            }
            _ => self.segments.push(SgSegment { src, dst, bytes }),
        }
    }

    /// Returns the plan's vectors to device `id`'s spare pool.
    fn recycle(self, sys: &mut System, id: DeviceId) {
        dev_mut(sys, id)
            .spare
            .put(self.segments, self.pages, Vec::new());
    }
}

/// Books the coalescing savings of a freshly built plan: eliminated
/// segments and the descriptor field writes they would have cost.
fn record_coalescing(sys: &mut System, id: DeviceId, plan: &Plan) {
    if plan.coalesced_away > 0 {
        let stats = &mut dev_mut(sys, id).stats;
        stats.segments_coalesced += plan.coalesced_away;
        stats.descriptor_writes_saved +=
            plan.coalesced_away * u64::from(memif_hwsim::dma::PARAM_FIELDS);
    }
}

/// Remembers which nodes a planned migration moves between, so the
/// retire site can credit the per-node move counters after the remap has
/// erased the source. Replications copy rather than move and are not
/// counted.
fn record_route(sys: &mut System, id: DeviceId, req: &MovReq, plan: &Plan) {
    if req.kind != MoveKind::Migrate {
        return;
    }
    let src = plan.pages.first().and_then(|p| sys.node_of(p.old_frame));
    if let Some(src) = src {
        if let Some(record) = dev_mut(sys, id).outstanding.get_mut(req.id) {
            record.route = Some((src.0, req.dst_node));
        }
    }
}

/// CPU codec work a segment list implies on topologies with a
/// compressed bank: bytes landing in such a bank charge compression,
/// bytes leaving one charge decompression — costed kernel work like the
/// CPU-copy degradation path, attributed separately in the meter.
/// Returns the charged duration (zero on ordinary topologies).
fn codec_charge(sys: &mut System, segments: &[SgSegment], ctx: Context) -> SimDuration {
    if !sys.topo.all_nodes().iter().any(|n| n.kind.is_compressed()) {
        return SimDuration::ZERO;
    }
    let kind_of = |sys: &System, addr: PhysAddr| {
        sys.topo
            .all_nodes()
            .iter()
            .find(|n| n.contains(addr))
            .map(|n| n.kind)
    };
    let (mut into, mut out_of) = (0u64, 0u64);
    for seg in segments {
        if kind_of(sys, seg.dst).is_some_and(memif_hwsim::MemoryKind::is_compressed) {
            into += seg.bytes;
        }
        if kind_of(sys, seg.src).is_some_and(memif_hwsim::MemoryKind::is_compressed) {
            out_of += seg.bytes;
        }
    }
    let mut cost = SimDuration::ZERO;
    if into > 0 {
        let c = sys.cost.compress(into);
        sys.meter.charge_compress(ctx, c);
        cost += c;
    }
    if out_of > 0 {
        let c = sys.cost.decompress(out_of);
        sys.meter.charge_decompress(ctx, c);
        cost += c;
    }
    cost
}

/// Runs operations 1–3 in context `ctx` for the requests in
/// `batch.members` (in chain order) as **one** scatter-gather launch; a
/// solo request is a batch of one. Each member is planned (and its
/// remap installed) individually, and a plan rejection notifies that
/// member alone. The survivors' segments form one descriptor chain,
/// programmed and launched once and completing with a single interrupt
/// whose handler fans status back out per request. Descriptor
/// exhaustion rolls every member back and applies the retry budget to
/// each one on its own, so no request is ever dropped. `attempt` counts
/// the exhaustion retries already spent (0 on first issue). Returns the
/// kernel time consumed (the caller resumes after it) and leaves
/// `batch.members` and `batch.planned` empty.
pub(crate) fn issue(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    shard: usize,
    ctx: Context,
    attempt: u32,
    batch: &mut BatchScratch,
) -> SimDuration {
    let mut elapsed = SimDuration::ZERO;

    // Plan every member. Rejections drop out of the batch here with
    // their failure notification; survivors have their remaps installed.
    let mut scratch = std::mem::take(&mut dev_mut(sys, id).shards[shard].scratch);
    for deq in batch.members.drain(..) {
        let mut plan = Plan::draw(sys, id);
        match plan_request(sys, id, &deq.req, &mut scratch, &mut plan) {
            Ok(()) => batch.planned.push((deq, plan)),
            Err((status, cost)) => {
                plan.recycle(sys, id);
                elapsed += cost;
                sys.meter.charge(ctx, cost);
                complete::notify(sys, sim, id, deq.slot, deq.req, status, None, ctx);
            }
        }
    }
    dev_mut(sys, id).shards[shard].scratch = scratch;
    if batch.planned.is_empty() {
        return elapsed;
    }

    // Charge Prep and Remap for every member.
    let (mut prep, mut remap) = (SimDuration::ZERO, SimDuration::ZERO);
    for (_, plan) in &batch.planned {
        record_coalescing(sys, id, plan);
        prep += plan.prep_cost;
        remap += plan.remap_cost;
    }
    sys.meter.charge(ctx, prep + remap);
    {
        let stats = &mut dev_mut(sys, id).stats;
        stats.phases.add(Phase::Prep, prep);
        stats.phases.add(Phase::Remap, remap);
    }
    elapsed += prep + remap;

    // Op 3, once: program the chain — a lone plan's segments in place,
    // several plans' concatenated. The engine-level reuse switch follows
    // the device's configuration (ablation A1).
    sys.dma
        .set_reuse_enabled(dev(sys, id).config.descriptor_reuse);
    let configured = if let [(_, plan)] = batch.planned.as_slice() {
        sys.dma.configure_segments(&plan.segments, &sys.cost)
    } else {
        batch.chain.clear();
        let planned = batch.planned.iter();
        batch
            .chain
            .extend(planned.flat_map(|(_, p)| p.segments.iter().copied()));
        sys.dma.configure_segments(&batch.chain, &sys.cost)
    };
    let cfg = match configured {
        Ok(cfg) => cfg,
        Err(memif_hwsim::dma::ChainError::AllBusy) => {
            // Every descriptor is tied up in other tenants' in-flight
            // transfers. A real driver waits for the PaRAM: each member
            // rolls back and retries after a backoff, and the budget
            // applies per request, never per batch.
            let chaos = sys.chaos_enabled();
            let (max_retries, fallback) = {
                let c = &dev(sys, id).config;
                (c.max_dma_retries, c.cpu_fallback)
            };
            let exhausted = chaos && attempt >= max_retries;
            for (deq, plan) in batch.planned.drain(..) {
                if exhausted && fallback {
                    // Retry budget exhausted under fault injection: serve
                    // the request degraded (the remap is still installed).
                    let solo = Link::Leader(Vec::new());
                    let token =
                        register_inflight(sys, id, &deq, None, plan, false, attempt, shard, solo);
                    elapsed += journal_issue(sys, id, token, ctx);
                    let reason = FailReason::Descriptors;
                    let degrade = SimEvent::DegradeOrFail {
                        device: id,
                        token,
                        reason,
                    };
                    sim.schedule_after(elapsed, degrade);
                    continue;
                }
                undo_remap(sys, id, &plan);
                plan.recycle(sys, id);
                if exhausted {
                    // Without the fallback, fail it — never drop it.
                    let failed = MoveStatus::Failed(FailReason::Descriptors);
                    complete::notify(sys, sim, id, deq.slot, deq.req, failed, None, ctx);
                    continue;
                }
                // The fault-free path keeps its historical unbounded fixed
                // backoff; under chaos the backoff doubles per attempt and
                // the budget above bounds it.
                let (backoff, next) = if chaos {
                    dev_mut(sys, id).stats.retries += 1;
                    (RETRY_BACKOFF * (1u64 << attempt.min(16)), attempt + 1)
                } else {
                    (RETRY_BACKOFF, 0)
                };
                let retry = SimEvent::ExecRetry {
                    device: id,
                    slot: deq.slot,
                    req: deq.req,
                    color: deq.color,
                    ctx,
                    attempt: next,
                    shard,
                };
                sim.schedule_after(backoff, retry);
            }
            return elapsed;
        }
        Err(_) => {
            // Cannot ever fit, or malformed geometry (validation and
            // assembly bound the page count by the pool size and plans
            // use one uniform page size, so this is belt-and-braces).
            for (deq, plan) in batch.planned.drain(..) {
                undo_remap(sys, id, &plan);
                plan.recycle(sys, id);
                let invalid = MoveStatus::Invalid;
                complete::notify(sys, sim, id, deq.slot, deq.req, invalid, None, ctx);
            }
            return elapsed;
        }
    };
    sys.meter.charge(ctx, cfg.config_cost);
    elapsed += cfg.config_cost;
    let n = batch.planned.len();
    {
        let stats = &mut dev_mut(sys, id).stats;
        stats.phases.add(Phase::DmaConfig, cfg.config_cost);
        stats.descriptors_written += cfg.descriptors as u64;
        if n >= 2 {
            stats.requests_batched += n as u64;
        }
    }
    let mut total_pages = 0u32;
    for (deq, plan) in &batch.planned {
        record_route(sys, id, &deq.req, plan);
        // Compressed-tier moves pay their codec before the engine starts.
        elapsed += codec_charge(sys, &plan.segments, ctx);
        total_pages += deq.req.nr_pages;
    }

    // One completion for the whole chain: the leader's mode is decided
    // by the combined size. Members remember their own-size mode for
    // the day they are split off into solo retries. Tokens are handed
    // out in chain order, so the leader's roster is known up front.
    let threshold = dev(sys, id).poll_threshold(sys.cost.poll_threshold_bytes);
    let chain_interrupt = cfg.bytes >= threshold;
    let leader = dev(sys, id).next_token;
    let mut roster = if n >= 2 {
        dev_mut(sys, id).spare.members()
    } else {
        Vec::new()
    };
    for token in leader + 1..leader + n as u64 {
        roster.push(token);
    }
    let mut cfg = Some(cfg);
    let mut offset = 0u64;
    let mut leader_req = 0;
    for (i, (deq, plan)) in batch.planned.drain(..).enumerate() {
        let own_bytes: u64 = plan.segments.iter().map(|s| s.bytes).sum();
        let (link, interrupt_mode) = if i == 0 {
            leader_req = deq.req.id;
            (Link::Leader(std::mem::take(&mut roster)), chain_interrupt)
        } else {
            (Link::Member { leader, offset }, own_bytes >= threshold)
        };
        offset += own_bytes;
        let token = register_inflight(
            sys,
            id,
            &deq,
            cfg.take(),
            plan,
            interrupt_mode,
            attempt,
            shard,
            link,
        );
        debug_assert_eq!(token, leader + i as u64, "tokens follow chain order");
        elapsed += journal_issue(sys, id, token, ctx);
    }

    let now = sim.now();
    if n == 1 {
        let label = format_args!("ops 1-3: prep+remap+cfg ({total_pages} pages)");
        sys.trace_emit(now, elapsed, ctx, label, Some(leader_req));
    } else {
        let label = format_args!("ops 1-3: batched prep+remap+cfg ({n} reqs, {total_pages} pages)");
        sys.trace_emit(now, elapsed, ctx, label, Some(leader_req));
    }
    // The transfer begins once the CPU-side work above has elapsed.
    let launch = SimEvent::Launch {
        device: id,
        token: leader,
    };
    sim.schedule_after(elapsed, launch);
    elapsed
}

/// [`issue`] for one request: a batch of one, on shard `shard`'s batch
/// buffers.
pub(crate) fn issue_one(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    shard: usize,
    ctx: Context,
    attempt: u32,
    deq: Dequeued,
) -> SimDuration {
    let mut batch = std::mem::take(&mut dev_mut(sys, id).shards[shard].batch);
    batch.members.push(deq);
    let elapsed = issue(sys, sim, id, shard, ctx, attempt, &mut batch);
    dev_mut(sys, id).shards[shard].batch = batch;
    elapsed
}

/// Appends the issued request's write-ahead record. No-op (and free)
/// unless the device was opened with `journal = true`; journaling
/// devices pay one `journal_write` per issue, returned here so the
/// caller folds it into the issue path's elapsed time. Called after the
/// in-flight entry is fully linked (batch offsets and leader set), so
/// the record captures the final chain linkage.
fn journal_issue(sys: &mut System, id: DeviceId, token: u64, ctx: Context) -> SimDuration {
    let record = {
        let device = dev_mut(sys, id);
        if !device.config.journal {
            return SimDuration::ZERO;
        }
        let owner = device.owner;
        let Some(i) = device.inflight.iter().find(|i| i.token == token) else {
            return SimDuration::ZERO;
        };
        device.stats.journal_records += 1;
        crate::journal::JournalRecord {
            device: id,
            space: owner,
            token,
            req: i.req,
            shard: i.shard,
            batch_leader: i.batch_leader,
            page_size: i.page_size,
            pages: i
                .pages
                .iter()
                .map(crate::journal::JournalPage::of_plan)
                .collect(),
            segments: i.segments.clone(),
            milestone: crate::journal::JournalMilestone::Issued,
            sealed: None,
        }
    };
    sys.journal.append(record);
    let cost = sys.cost.journal_write;
    sys.meter.charge(ctx, cost);
    cost
}

/// A request's place in the chain it launches on.
enum Link {
    /// Owns the launch: a solo request (no members) or a batch leader
    /// with its members' tokens in chain order.
    Leader(Vec<u64>),
    /// Rides `leader`'s launch, its first segment `offset` bytes into
    /// the chain.
    Member { leader: u64, offset: u64 },
}

/// Registers a prepared request with the device and returns its token.
/// The request's virtual address spans enter the device-wide in-flight
/// index here (and leave it in `MemifDevice::take_inflight`), so every
/// shard's issue-time hazard guard sees it immediately.
#[allow(clippy::too_many_arguments)]
fn register_inflight(
    sys: &mut System,
    id: DeviceId,
    deq: &Dequeued,
    cfg: Option<memif_hwsim::dma::ConfiguredTransfer>,
    plan: Plan,
    interrupt_mode: bool,
    attempt: u32,
    shard: usize,
    link: Link,
) -> u64 {
    let (batch_members, batch_leader, chain_offset) = match link {
        Link::Leader(members) => (members, None, 0),
        Link::Member { leader, offset } => (Vec::new(), Some(leader), offset),
    };
    let req = deq.req;
    let device = dev_mut(sys, id);
    let token = device.next_token;
    device.next_token += 1;
    let len = u64::from(req.nr_pages) << req.page_shift;
    device.spans.insert(req.src_base, len, token);
    if req.kind == MoveKind::Replicate {
        device.spans.insert(req.dst_base, len, token);
    }
    device.inflight.push(Inflight {
        token,
        req,
        slot: deq.slot,
        transfer: None,
        tc: None,
        cfg,
        segments: plan.segments,
        pages: plan.pages,
        page_size: plan.page_size,
        interrupt_mode,
        dma_started_at: None,
        completed: false,
        attempt,
        watchdog: None,
        batch_members,
        batch_leader,
        chain_offset,
        shard,
    });
    token
}

pub(crate) fn launch(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
) {
    let now = sim.now();
    if sys.device(id).is_none() || dev(sys, id).inflight.iter().all(|i| i.token != token) {
        // Aborted before launch (recover mode): free the slot this
        // launch would have taken for whoever is waiting.
        launch_next_waiting(sys, sim);
        return;
    }
    // Table 2: the engine has a fixed number of transfer controllers;
    // a launch with all of them busy queues until one frees. Admission
    // routes onto the least-loaded controller channel.
    let Some(tc) = sys.tc.admit((id, token)) else {
        sys.trace_emit(
            now,
            memif_hwsim::SimDuration::ZERO,
            Context::DmaEngine,
            "transfer queued: all transfer controllers busy",
            dev(sys, id)
                .inflight
                .iter()
                .find(|i| i.token == token)
                .map(|i| i.req.id),
        );
        return;
    };
    let Some(inflight) = dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
    else {
        unreachable!("checked above");
    };
    let cfg = inflight
        .cfg
        .take()
        .expect("launch consumes a programmed cfg");
    inflight.tc = Some(tc);
    if inflight.dma_started_at.is_none() {
        inflight.dma_started_at = Some(now);
    }
    // Batch members ride this launch: stamp their DMA start too.
    let member_tokens = std::mem::take(&mut inflight.batch_members);
    for m in &member_tokens {
        if let Some(i) = dev_mut(sys, id).inflight.iter_mut().find(|i| i.token == *m) {
            if i.dma_started_at.is_none() {
                i.dma_started_at = Some(now);
            }
        }
    }
    dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
        .expect("still inflight")
        .batch_members = member_tokens;
    let src_node = sys.node_of(cfg.first.src).expect("segment in a known bank");
    let dst_node = sys.node_of(cfg.first.dst).expect("segment in a known bank");
    let route = sys.dma_route_on(tc, src_node, dst_node);
    let demand = sys.cost.dma_engine_bw_gbps;
    let ticket = sys.dma.launch(&cfg, demand);
    let payload = match ticket.delivery {
        CompletionDelivery::Interrupt(outcome) => SimEvent::DmaDone {
            device: id,
            transfer: ticket.id,
            outcome,
        },
        CompletionDelivery::Delayed { outcome, delay } => SimEvent::DmaIrqDelayed {
            device: id,
            transfer: ticket.id,
            outcome,
            delay,
        },
        CompletionDelivery::Dropped => SimEvent::DmaIrqLost {
            device: id,
            transfer: ticket.id,
        },
    };
    let flow = sys
        .flows
        .start_flow(sim, &route, ticket.flow_bytes, demand, payload);
    sys.dma.attach_flow(ticket.id, flow);
    let req_id = dev(sys, id)
        .inflight
        .iter()
        .find(|i| i.token == token)
        .map(|i| i.req.id);
    dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
        .expect("still inflight")
        .transfer = Some(ticket.id);
    // Account the engine's busy time for utilization plots.
    let wall = SimDuration::for_bytes(cfg.bytes, demand) + cfg.engine_overhead;
    sys.meter.charge(Context::DmaEngine, wall);
    sys.trace_emit(now, wall, Context::DmaEngine, "DMA transfer", req_id);

    // Chaos-only watchdog: arm a deadline generous enough for queueing
    // and brownouts; if the completion interrupt never arrives the timer
    // reclaims the transfer. Fault-free runs never schedule this event,
    // keeping the hot path and the event stream identical to pre-
    // hardening builds.
    if sys.chaos_enabled() {
        let deadline = wall * WATCHDOG_FACTOR + WATCHDOG_SLACK;
        let wd = sim.schedule_after(deadline, SimEvent::WatchdogFire { device: id, token });
        dev_mut(sys, id)
            .inflight
            .iter_mut()
            .find(|i| i.token == token)
            .expect("still inflight")
            .watchdog = Some(wd);
    }

    // Crash point: the transfer is on the engine and the journal record
    // (if any) is durable — power fails right after the DMA starts.
    sys.maybe_crash(sim, memif_hwsim::CrashPoint::PostLaunch);
}

/// The per-request watchdog: declares the transfer lost if it is still
/// pending when the deadline expires, then routes it into the bounded
/// retry machinery.
pub(crate) fn watchdog_fire(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
) {
    if sys.device(id).is_none() {
        return;
    }
    let Some(inflight) = dev(sys, id).inflight.iter().find(|i| i.token == token) else {
        return; // finished or aborted; stale timer
    };
    if inflight.completed {
        return;
    }
    let req_id = inflight.req.id;
    dev_mut(sys, id).stats.timeouts += 1;
    sys.trace_emit(
        sim.now(),
        SimDuration::ZERO,
        Context::Interrupt,
        "watchdog: completion interrupt lost",
        Some(req_id),
    );
    handle_dma_failure(sys, sim, id, token, FailReason::Timeout);
}

/// Common failure funnel for watchdog expiry and DMA error interrupts:
/// reclaims the engine resources of the failed attempt, then either
/// re-issues the request (bounded, exponential backoff) or degrades it.
pub(crate) fn handle_dma_failure(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
    reason: FailReason,
) {
    // A batch leader entering the failure funnel drags its members with
    // it — the combined chained transfer is gone for everyone. Disband
    // first, then funnel each request individually, so retry, degrade
    // and fallback all operate per request, never per batch. (A
    // mid-chain error interrupt disbands in `complete` instead, where
    // the fault-point byte count lets finished members complete.)
    let members = match dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
    {
        Some(i) => std::mem::take(&mut i.batch_members),
        None => return,
    };
    for m in &members {
        let mut rid = None;
        if let Some(i) = dev_mut(sys, id).inflight.iter_mut().find(|i| i.token == *m) {
            i.batch_leader = None;
            rid = Some(i.req.id);
        }
        if let Some(rid) = rid {
            sys.journal.set_leader(id, rid, None);
        }
    }
    fail_one(sys, sim, id, token, reason);
    for m in members {
        fail_one(sys, sim, id, m, reason);
    }
}

/// [`handle_dma_failure`] for a single (already unlinked) request.
fn fail_one(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
    reason: FailReason,
) {
    let Some(inflight) = dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
    else {
        return;
    };
    if let Some(w) = inflight.watchdog.take() {
        sim.cancel(w);
    }
    let attempt = inflight.attempt;
    let held_tc = inflight.tc.take();
    match inflight.transfer.take() {
        Some(t) => {
            // A lost transfer still owns its chain and controller slot
            // (its completion never ran); abort reclaims both. A transfer
            // already retired by its error interrupt aborts as a no-op.
            if let Some(aborted) = sys.dma.abort(t) {
                if let Some(flow) = aborted.flow {
                    sys.flows.cancel_flow(sim, flow);
                }
                if let Some(tc) = held_tc {
                    release_tc(sys, sim, tc);
                }
            }
        }
        None => {
            sys.tc.cancel_waiting(|(d, t)| *d == id && *t == token);
        }
    }
    if attempt < dev(sys, id).config.max_dma_retries {
        {
            let device = dev_mut(sys, id);
            device.stats.retries += 1;
            if let Some(i) = device.inflight.iter_mut().find(|i| i.token == token) {
                i.attempt += 1;
            }
        }
        let backoff = RETRY_BACKOFF * (1u64 << attempt.min(16));
        sim.schedule_after(backoff, SimEvent::RetryLaunch { device: id, token });
        return;
    }
    degrade_or_fail(sys, sim, id, token, reason);
}

/// Re-issues a request whose previous DMA attempt failed: reprograms the
/// scatter-gather chain from the retained segments and relaunches.
pub(crate) fn retry_launch(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
) {
    if sys.device(id).is_none() {
        return;
    }
    sys.dma
        .set_reuse_enabled(dev(sys, id).config.descriptor_reuse);
    // The device and the engine are disjoint fields: the segment list is
    // programmed in place.
    let device = sys.devices[id.0].as_ref().expect("device open");
    let Some(inflight) = device.inflight.iter().find(|i| i.token == token) else {
        return; // aborted while backing off
    };
    let req_id = Some(inflight.req.id);
    match sys.dma.configure_segments(&inflight.segments, &sys.cost) {
        Ok(cfg) => {
            let cost = cfg.config_cost;
            sys.meter.charge(Context::KernelThread, cost);
            {
                let device = dev_mut(sys, id);
                device.stats.phases.add(Phase::DmaConfig, cost);
                device.stats.descriptors_written += cfg.descriptors as u64;
                if let Some(i) = device.inflight.iter_mut().find(|i| i.token == token) {
                    i.cfg = Some(cfg);
                }
            }
            sys.trace_emit(
                sim.now(),
                cost,
                Context::KernelThread,
                "retry: reprogram chain",
                req_id,
            );
            sim.schedule_after(cost, SimEvent::Launch { device: id, token });
        }
        Err(memif_hwsim::dma::ChainError::AllBusy) => {
            // Still exhausted: charge another attempt against the budget.
            handle_dma_failure(sys, sim, id, token, FailReason::Descriptors);
        }
        Err(_) => {
            // Geometry errors cannot heal by retrying.
            degrade_or_fail(sys, sim, id, token, FailReason::Descriptors);
        }
    }
}

/// Retry budget exhausted: serve the request on the costed CPU-copy path
/// (configurable), or tear it down and deliver `Failed`. Either way the
/// request reaches exactly one terminal state.
pub(crate) fn degrade_or_fail(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
    reason: FailReason,
) {
    let Some(index) = dev(sys, id).inflight.iter().position(|i| i.token == token) else {
        return;
    };
    if !dev(sys, id).config.cpu_fallback {
        let mut inflight = dev_mut(sys, id).take_inflight(index);
        if let Some(w) = inflight.watchdog.take() {
            sim.cancel(w);
        }
        let held_tc = inflight.tc.take();
        if let Some(t) = inflight.transfer.take() {
            if let Some(aborted) = sys.dma.abort(t) {
                if let Some(flow) = aborted.flow {
                    sys.flows.cancel_flow(sim, flow);
                }
                if let Some(tc) = held_tc {
                    release_tc(sys, sim, tc);
                }
            }
        }
        fault::teardown_inflight(sys, sim, id, inflight, MoveStatus::Failed(reason));
        return;
    }
    // Degraded service: the kernel worker performs the copy itself at the
    // costed CPU-copy bandwidth (4 µs per 4 KB page on Keystone II).
    let copy_cost = {
        let inflight = &dev(sys, id).inflight[index];
        let bytes: u64 = inflight.segments.iter().map(|s| s.bytes).sum();
        sys.cost.cpu_copy(bytes)
    };
    sys.meter.charge(Context::KernelThread, copy_cost);
    complete::copy_segments(sys, id, index);
    let (req_id, shard) = {
        let device = dev_mut(sys, id);
        device.stats.fallbacks += 1;
        device.stats.phases.add(Phase::Copy, copy_cost);
        let inflight = &mut device.inflight[index];
        inflight.completed = true; // engine freed; pipeline slot opens
        inflight.cfg = None;
        (inflight.req.id, inflight.shard)
    };
    sys.meter.attribute_worker(shard, copy_cost);
    // The payload is at the destination; a crash from here on rolls the
    // move forward instead of back.
    sys.journal.copy_done(id, req_id);
    sys.trace_emit(
        sim.now(),
        copy_cost,
        Context::KernelThread,
        "degraded: CPU-copy fallback",
        Some(req_id),
    );
    // Release must wait for the owning worker's CPU, like the polling
    // path.
    let ready_at = (sim.now() + copy_cost).max(dev(sys, id).shards[shard].busy_until);
    dev_mut(sys, id).shards[shard].busy_until = ready_at;
    sim.schedule_at(ready_at, SimEvent::DegradedRelease { device: id, token });
}

/// Frees the transfer-controller slot a retired transfer held on channel
/// `tc` and launches the next waiting transfer, if any. Called from
/// every completion/abort path, with the channel taken from the
/// in-flight record (exactly once per launch).
pub(crate) fn release_tc(sys: &mut System, sim: &mut memif_hwsim::Sim<System>, tc: usize) {
    if let Some((id, token)) = sys.tc.release(tc) {
        launch(sys, sim, id, token);
    }
}

fn launch_next_waiting(sys: &mut System, sim: &mut memif_hwsim::Sim<System>) {
    if let Some((id, token)) = sys.tc.take_waiting() {
        launch(sys, sim, id, token);
    }
}

/// Validates a request and builds its execution plan into `plan`, whose
/// vectors arrive empty.
fn plan_request(
    sys: &mut System,
    id: DeviceId,
    req: &MovReq,
    scratch: &mut PlanScratch,
    plan: &mut Plan,
) -> Result<(), (MoveStatus, SimDuration)> {
    let device = dev(sys, id);
    let owner = device.owner;
    let gang = device.config.gang_lookup;
    let race_mode = device.config.race_mode;
    let coalesce = device.config.coalesce;
    let validate_cost = sys.cost.queue_op;

    let Some(page_size) = PageSize::from_shift(req.page_shift) else {
        return Err((MoveStatus::Invalid, validate_cost));
    };
    if req.nr_pages == 0 || req.nr_pages as usize > sys.dma.max_segments() {
        return Err((MoveStatus::Invalid, validate_cost));
    }
    let src = VirtAddr::new(req.src_base);
    let len = u64::from(req.nr_pages) * page_size.bytes();
    if !src.is_aligned(page_size) {
        return Err((MoveStatus::Invalid, validate_cost));
    }

    let space = sys.space(owner);
    let Some(vma) = space.vma_covering(src, len) else {
        return Err((MoveStatus::Invalid, validate_cost));
    };
    if vma.page_size != page_size {
        return Err((MoveStatus::Invalid, validate_cost));
    }

    plan.page_size = page_size;
    plan.coalesce = coalesce;
    match req.kind {
        MoveKind::Replicate => plan_replication(sys, owner, req, gang, scratch, plan),
        MoveKind::Migrate => plan_migration(sys, owner, req, gang, race_mode, scratch, plan),
    }
}

fn lookup_cost(sys: &System, stats: memif_mm::WalkStats) -> SimDuration {
    sys.cost.pt_walk_vertical * u64::from(stats.vertical)
        + sys.cost.pt_walk_horizontal * u64::from(stats.horizontal)
}

fn plan_replication(
    sys: &mut System,
    owner: crate::system::SpaceId,
    req: &MovReq,
    gang: bool,
    scratch: &mut PlanScratch,
    plan: &mut Plan,
) -> Result<(), (MoveStatus, SimDuration)> {
    let page_size = plan.page_size;
    let src = VirtAddr::new(req.src_base);
    let dst = VirtAddr::new(req.dst_base);
    let len = u64::from(req.nr_pages) * page_size.bytes();
    let validate_cost = sys.cost.queue_op;
    if !dst.is_aligned(page_size) {
        return Err((MoveStatus::Invalid, validate_cost));
    }
    // Overlapping replication has no sane page-wise semantics; reject.
    if src.as_u64() < dst.offset(len).as_u64() && dst.as_u64() < src.offset(len).as_u64() {
        return Err((MoveStatus::Invalid, validate_cost));
    }
    let space = sys.space(owner);
    if space.vma_covering(dst, len).map(|v| v.page_size) != Some(page_size) {
        return Err((MoveStatus::Invalid, validate_cost));
    }

    // Op 1 for both regions: replication looks up source and destination
    // descriptors but manages no virtual memory (§3).
    let s1 = space.lookup_range_into(src, req.nr_pages, page_size, gang, &mut scratch.ptes);
    let s2 = space.lookup_range_into(dst, req.nr_pages, page_size, gang, &mut scratch.dst_ptes);
    let mut prep_cost = lookup_cost(sys, s1) + lookup_cost(sys, s2);
    prep_cost += sys.cost.gang_bookkeeping * u64::from(req.nr_pages);

    for (s, d) in scratch.ptes.iter().zip(&scratch.dst_ptes) {
        match (s, d) {
            (Some(sp), Some(dp)) if sp.is_present() && dp.is_present() => {
                plan.push_segment(sp.frame(), dp.frame());
            }
            _ => return Err((MoveStatus::Invalid, prep_cost)),
        }
    }
    plan.prep_cost = prep_cost;
    Ok(())
}

fn plan_migration(
    sys: &mut System,
    owner: crate::system::SpaceId,
    req: &MovReq,
    gang: bool,
    race_mode: RaceMode,
    scratch: &mut PlanScratch,
    plan: &mut Plan,
) -> Result<(), (MoveStatus, SimDuration)> {
    let page_size = plan.page_size;
    let src = VirtAddr::new(req.src_base);
    let dst_node = memif_hwsim::NodeId(req.dst_node);
    if sys.topo.node(dst_node).is_none() {
        return Err((MoveStatus::Invalid, sys.cost.queue_op));
    }

    // Op 1: gang page lookup.
    let walk =
        sys.space(owner)
            .lookup_range_into(src, req.nr_pages, page_size, gang, &mut scratch.ptes);
    let mut prep_cost = lookup_cost(sys, walk);
    prep_cost += sys.cost.gang_bookkeeping * u64::from(req.nr_pages);
    let originals = &mut scratch.originals;
    originals.clear();
    for (i, pte) in scratch.ptes.iter().enumerate() {
        match pte {
            Some(p) if p.is_present() => {
                originals.push((src.offset(i as u64 * page_size.bytes()), *p));
            }
            _ => return Err((MoveStatus::Invalid, prep_cost)),
        }
    }

    // Op 2 (first half): allocate every destination page up front so a
    // mid-request exhaustion leaves the address space untouched.
    let new_frames = &mut scratch.new_frames;
    new_frames.clear();
    for _ in 0..originals.len() {
        match sys.alloc.alloc(dst_node, page_size) {
            Ok(f) => new_frames.push(f),
            Err(_) => {
                for f in new_frames.drain(..) {
                    let _ = sys.alloc.free(f);
                }
                let cost = prep_cost + sys.cost.page_alloc * u64::from(req.nr_pages);
                return Err((MoveStatus::OutOfMemory, cost));
            }
        }
    }

    // Op 2 (second half): install the in-flight entries. Shared pages
    // (frames also mapped by other spaces) are discovered through the
    // reverse map; remote mappers get Linux-style migration entries for
    // the transfer window and are rewritten at Release (§6.7 extension).
    let mut remap_cost = sys.cost.page_alloc * originals.len() as u64;
    for (&(vaddr, original), &new_frame) in originals.iter().zip(new_frames.iter()) {
        let shared = sys
            .alloc
            .frame_info(original.frame())
            .is_some_and(|f| f.refcount > 1);
        let remote: Vec<(crate::system::SpaceId, VirtAddr)> = if shared {
            remap_cost += sys.cost.page_bookkeeping; // rmap walk
            sys.rmap_mappers(original.frame(), page_size)
                .into_iter()
                .filter(|(s, v)| !(*s == owner && *v == vaddr))
                .collect()
        } else {
            Vec::new()
        };
        let final_pte = original
            .with_frame(new_frame)
            .with_young(false)
            .with_watch(false);
        let installed = match race_mode {
            // Semi-final PTE: identical to final except young set (§5.2).
            RaceMode::DetectFail => final_pte.with_young(true),
            // Recover mode additionally write-watches the page.
            RaceMode::DetectRecover => final_pte.with_young(true).with_watch(true),
            // Ablation: Linux-style migration entry blocks accessors.
            RaceMode::Prevent => Pte::migration_entry(page_size),
        };
        let space = &mut sys.spaces[owner.0];
        space
            .table_mut()
            .replace(vaddr, installed)
            .expect("entry present above");
        space.tlb_mut().flush_page(vaddr, page_size);
        remap_cost += sys.cost.pte_update_with_flush();
        for (sid, rva) in &remote {
            // The new frame gains one reference per remote mapper up
            // front, so an abort can roll back uniformly.
            sys.alloc.get_ref(new_frame).expect("new frame live");
            let rspace = &mut sys.spaces[sid.0];
            rspace
                .table_mut()
                .replace(*rva, Pte::migration_entry(page_size))
                .expect("remote mapping present");
            rspace.tlb_mut().flush_page(*rva, page_size);
            remap_cost += sys.cost.pte_update_with_flush();
        }
        plan.push_segment(original.frame(), new_frame);
        plan.pages.push(PagePlan {
            vaddr,
            old_frame: original.frame(),
            new_frame,
            original,
            installed,
            final_pte,
            remote,
        });
    }
    plan.prep_cost = prep_cost;
    plan.remap_cost = remap_cost;
    Ok(())
}

/// Rolls Remap back after a post-remap failure (descriptor exhaustion).
fn undo_remap(sys: &mut System, id: DeviceId, plan: &Plan) {
    let owner = dev(sys, id).owner;
    for page in &plan.pages {
        let space = &mut sys.spaces[owner.0];
        space
            .table_mut()
            .replace(page.vaddr, page.original)
            .expect("entry exists");
        space.tlb_mut().flush_page(page.vaddr, plan.page_size);
        for (sid, rva) in &page.remote {
            let restored = page.original.with_young(false);
            let rspace = &mut sys.spaces[sid.0];
            rspace
                .table_mut()
                .replace(*rva, restored)
                .expect("remote entry exists");
            rspace.tlb_mut().flush_page(*rva, plan.page_size);
            let _ = sys.alloc.free(page.new_frame); // drop remote's ref
        }
    }
    for page in &plan.pages {
        let _ = sys.alloc.free(page.new_frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Memif;
    use crate::config::MemifConfig;
    use crate::system::SpaceId;
    use memif_hwsim::NodeId;
    use proptest::prelude::*;

    /// The reference model of coalescing: one segment per page, then
    /// adjacent segments whose source **and** destination runs are both
    /// physically contiguous merged in place. Returns the number of
    /// segments eliminated.
    fn coalesce_in_place(segs: &mut Vec<SgSegment>) -> u64 {
        if segs.len() < 2 {
            return 0;
        }
        let before = segs.len();
        let mut w = 0usize;
        for r in 1..segs.len() {
            let seg = segs[r];
            let prev = segs[w];
            if prev.src.offset(prev.bytes) == seg.src && prev.dst.offset(prev.bytes) == seg.dst {
                segs[w].bytes += seg.bytes;
            } else {
                w += 1;
                segs[w] = seg;
            }
        }
        segs.truncate(w + 1);
        (before - segs.len()) as u64
    }

    fn page_size(sel: u8) -> PageSize {
        match sel % 3 {
            0 => PageSize::Small4K,
            1 => PageSize::Medium64K,
            _ => PageSize::Large2M,
        }
    }

    /// Maps `pages` pages on `node` and rewires them onto a fragmented
    /// layout of their own frames. Each `(len, gap, reversed, front)`
    /// run skips `gap` frames (they go to the region's tail), takes the
    /// next `len` frames, backwards if `reversed`, and joins the layout
    /// at its front or its back, so runs are out of order too. Returns
    /// the region's base and its frames in virtual-page order.
    fn fragmented_region(
        sys: &mut System,
        space: SpaceId,
        pages: u32,
        size: PageSize,
        node: NodeId,
        runs: &[(u8, u8, bool, bool)],
    ) -> (VirtAddr, Vec<PhysAddr>) {
        let base = sys.mmap(space, pages, size, node).expect("region maps");
        let vaddr = |i: usize| base.offset(i as u64 * size.bytes());
        let mut pool: Vec<PhysAddr> = (0..pages as usize)
            .map(|i| sys.space(space).translate(vaddr(i)).expect("mapped"))
            .collect();
        pool.sort_unstable();
        let mut pool = pool.into_iter();
        let (mut layout, mut skipped) = (std::collections::VecDeque::new(), Vec::new());
        for &(len, gap, reversed, front) in runs {
            skipped.extend(pool.by_ref().take(usize::from(gap % 4)));
            let mut run: Vec<PhysAddr> = pool.by_ref().take(usize::from(len % 9)).collect();
            if reversed {
                run.reverse();
            }
            if front {
                run.into_iter().rev().for_each(|f| layout.push_front(f));
            } else {
                layout.extend(run);
            }
        }
        let frames: Vec<PhysAddr> = layout.into_iter().chain(skipped).chain(pool).collect();
        let table = sys.space_mut(space).table_mut();
        for (i, &frame) in frames.iter().enumerate() {
            let pte = table.peek(vaddr(i), size).expect("mapped");
            table
                .replace(vaddr(i), pte.with_frame(frame))
                .expect("remap");
        }
        (base, frames)
    }

    /// Run shapes for [`fragmented_region`].
    fn runs() -> impl Strategy<Value = Vec<(u8, u8, bool, bool)>> {
        let run = (any::<u8>(), any::<u8>(), any::<bool>(), any::<bool>());
        proptest::collection::vec(run, 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Coalescing while planning builds exactly the descriptors the
        /// old two-pass plan did — one segment per page, then
        /// `coalesce_in_place` — over fragmented frame layouts (gaps,
        /// reversed and out-of-order runs, single pages) at 4K, 64K and
        /// 2M, for migrations and replications, coalescing on and off;
        /// and the device books the same savings.
        #[test]
        fn planning_coalesces_like_the_two_pass_model(
            size_sel in 0u8..3,
            replicate in any::<bool>(),
            coalesce in any::<bool>(),
            n in 1u32..=64,
            src_runs in runs(),
            dst_runs in runs(),
            holes in any::<u64>(),
        ) {
            let size = page_size(size_sel);
            // Keep 2 MiB regions (mapped twice over) small.
            let n = if size == PageSize::Large2M { 1 + n % 8 } else { n };
            let mut sys = System::keystone_ii();
            let space = sys.new_space();
            let config = MemifConfig { coalesce, ..MemifConfig::default() };
            let id = Memif::open(&mut sys, space, config).expect("device opens").device();
            let (src, src_frames) =
                fragmented_region(&mut sys, space, 2 * n, size, NodeId(0), &src_runs);
            let (dst, dst_frames) =
                fragmented_region(&mut sys, space, 2 * n, size, NodeId(0), &dst_runs);
            // Migrations allocate their destination frames: punch holes
            // in the destination node first.
            let dst_node = if size == PageSize::Large2M { NodeId(0) } else { NodeId(1) };
            let taken: Vec<PhysAddr> = (0..64)
                .map_while(|_| sys.alloc.alloc(dst_node, size).ok())
                .collect();
            for (i, frame) in taken.into_iter().enumerate() {
                if holes >> i & 1 == 1 {
                    sys.alloc.free(frame).expect("frees");
                }
            }

            let req = MovReq {
                id: 1,
                kind: if replicate { MoveKind::Replicate } else { MoveKind::Migrate },
                src_base: src.as_u64(),
                dst_base: dst.as_u64(),
                nr_pages: n,
                page_shift: size.shift(),
                dst_node: dst_node.0,
                ..MovReq::default()
            };
            let mut scratch = PlanScratch::default();
            let mut plan = Plan::draw(&mut sys, id);
            prop_assert!(plan_request(&mut sys, id, &req, &mut scratch, &mut plan).is_ok());

            let pairs: Vec<(PhysAddr, PhysAddr)> = if replicate {
                src_frames.iter().copied().zip(dst_frames.iter().copied()).take(n as usize).collect()
            } else {
                let old: Vec<PhysAddr> = plan.pages.iter().map(|p| p.old_frame).collect();
                prop_assert_eq!(&old[..], &src_frames[..n as usize]);
                plan.pages.iter().map(|p| (p.old_frame, p.new_frame)).collect()
            };
            let mut model: Vec<SgSegment> = pairs
                .into_iter()
                .map(|(src, dst)| SgSegment { src, dst, bytes: size.bytes() })
                .collect();
            let away = if coalesce { coalesce_in_place(&mut model) } else { 0 };
            prop_assert_eq!(&plan.segments, &model);
            prop_assert_eq!(plan.coalesced_away, away);

            record_coalescing(&mut sys, id, &plan);
            let stats = &dev(&sys, id).stats;
            prop_assert_eq!(stats.segments_coalesced, away);
            prop_assert_eq!(
                stats.descriptor_writes_saved,
                away * u64::from(memif_hwsim::dma::PARAM_FIELDS)
            );
        }
    }
}
