//! The syscall path: `ioctl(MOV_ONE)` (§4.2, §5.4).
//!
//! "Entering the kernel, it dequeues a `mov_req` from the submission
//! queue and executes the memif driver for the request. [...] it exits
//! the kernel as soon as the resultant DMA transfer starts." The
//! application thread pays exactly one crossing for an entire burst of
//! asynchronous submissions.

use memif_hwsim::{Context, Phase, Sim, SimDuration};
use memif_lockfree::QueueId;

use crate::device::DeviceId;
use crate::driver::exec::execute_request;
use crate::driver::{dev, dev_mut};
use crate::event::SimEvent;
use crate::system::System;

/// Executes one `MOV_ONE` command in the calling process's context,
/// against issue shard `shard`'s submission queue. Returns the time
/// spent inside the kernel (crossing + ops 1–3).
pub(crate) fn mov_one(
    sys: &mut System,
    sim: &mut Sim<System>,
    id: DeviceId,
    shard: usize,
) -> SimDuration {
    let crossing = sys.cost.syscall;
    sys.meter.charge(Context::Syscall, crossing);
    sys.trace_emit(
        sim.now(),
        crossing,
        Context::Syscall,
        "ioctl(MOV_ONE) enter",
        None,
    );
    {
        let stats = &mut dev_mut(sys, id).stats;
        stats.ioctls += 1;
        stats.phases.add(Phase::Interface, crossing);
    }

    let queue_cost = sys.cost.queue_op;
    sys.meter.charge(Context::Syscall, queue_cost);
    // Weighted-fair mode: the shard's requests are (or are about to be)
    // arbitrated by the worker's DRR over per-tenant software queues; a
    // direct front dequeue here would jump that schedule. Hand the work
    // to the worker and return — the syscall still pays its crossing.
    if dev(sys, id).qos_multi(shard) {
        sim.schedule_after(
            crossing + queue_cost,
            SimEvent::KthreadRun { device: id, shard },
        );
        return crossing + queue_cost;
    }
    let next = match dev(sys, id)
        .region
        .dequeue_sharded(QueueId::Submission, shard)
    {
        Ok(next) => next,
        Err(e) => {
            // The mapped region failed validation mid-ioctl: fail the
            // call cleanly instead of panicking the kernel.
            crate::driver::region_fault(sys, sim, id, Context::Syscall, &e);
            return crossing + queue_cost;
        }
    };

    match next {
        Some(deq) => {
            dev_mut(sys, id).note_dequeued(shard, deq.req.tenant);
            // The same issue-time hazard guard the worker applies: with
            // one shard an overlapping request can never reach this
            // point (it lands on the Red staging queue and goes through
            // the worker), but with affinity routing the conflicting
            // requests can arrive on *different* shards, each finding
            // its own queue idle. Park it; the conflicting request's
            // retire path wakes every shard with deferred work.
            if let Some(tok) = crate::driver::kthread::conflicting_token(dev(sys, id), &deq.req) {
                let cross = dev(sys, id)
                    .inflight
                    .iter()
                    .find(|i| i.token == tok)
                    .is_some_and(|i| i.shard != shard);
                let stats = &mut dev_mut(sys, id).stats;
                stats.requests_deferred += 1;
                if cross {
                    stats.cross_shard_deferred += 1;
                }
                dev_mut(sys, id).shards[shard].deferred.push(deq);
                // Any burst-mates behind it still need the worker.
                sim.schedule_after(
                    crossing + queue_cost,
                    SimEvent::KthreadRun { device: id, shard },
                );
                return crossing + queue_cost;
            }
            let (tenant, bytes) = (deq.req.tenant, deq.req.len_bytes());
            let (elapsed, _outcome) = execute_request(sys, sim, id, deq, Context::Syscall, shard);
            if dev(sys, id).config.qos {
                dev_mut(sys, id).shards[shard]
                    .drr
                    .charge(memif_qos::TenantId(tenant), bytes);
                sys.meter.attribute_tenant(tenant, elapsed);
            }
            // Wake the shard's worker once the syscall's CPU time has
            // passed: it drains the rest of the burst, pipelining the
            // next request's preparation with the first transfer.
            sim.schedule_after(elapsed, SimEvent::KthreadRun { device: id, shard });
            crossing + queue_cost + elapsed
        }
        None => crossing + queue_cost, // spurious kick: queue already drained
    }
}
