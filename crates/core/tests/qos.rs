//! QoS invariants: multi-tenant scheduling and admission control must
//! never violate a tenant's resource envelope, must keep every parked
//! request live, and must cost *nothing* when only the root tenant
//! exists.
//!
//! Three pins:
//!
//! * **Quotas are hard**: at every simulation step, no tenant's
//!   admitted-in-flight count exceeds its `inflight_cap` and no
//!   tenant's descriptor slots exceed its `descriptor_quota` — for any
//!   random roster of caps, weights, and submission interleavings.
//! * **Parking is not dropping**: a request refused admission parks,
//!   is re-admitted when headroom frees, and still reaches a terminal
//!   status; `requests_parked` and `requests_readmitted` reconcile.
//! * **Single tenant is free**: `qos = true` with only root-tenant
//!   traffic replays the default configuration's typed event log
//!   verbatim, so every seed figure and committed trace is untouched
//!   by the QoS subsystem while it is off or trivially on.

use memif::{Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, System, TenantConfig, TenantId};
use proptest::prelude::*;

const PAGE: PageSize = PageSize::Small4K;
const PAGES: u32 = 8;

/// One tenant's randomly drawn envelope.
#[derive(Debug, Clone)]
struct Envelope {
    weight: u32,
    inflight_cap: Option<u32>,
    descriptor_quota: Option<u32>,
    requests: usize,
}

fn envelope_strategy() -> impl Strategy<Value = Envelope> {
    (
        1u32..8,
        prop_oneof![Just(None), (1u32..4).prop_map(Some)],
        prop_oneof![Just(None), (1u32..6).prop_map(Some)],
        1usize..6,
    )
        .prop_map(
            |(weight, inflight_cap, descriptor_quota, requests)| Envelope {
                weight,
                inflight_cap,
                descriptor_quota,
                requests,
            },
        )
}

/// Drives `envelopes` worth of tenants through one device, stepping
/// the simulator one event at a time and checking the quota invariant
/// after every step. Returns (parked, readmitted) from the driver.
fn run_quota_workload(envelopes: &[Envelope], shards: usize) -> (u64, u64) {
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let config = MemifConfig {
        qos: true,
        issue_shards: shards,
        ..MemifConfig::default()
    };
    let memif = Memif::open(&mut sys, space, config).unwrap();

    for (i, env) in envelopes.iter().enumerate() {
        sys.qos.register(
            TenantId(1 + i as u16),
            TenantConfig {
                weight: env.weight,
                inflight_cap: env.inflight_cap,
                descriptor_quota: env.descriptor_quota,
            },
        );
    }

    let mut expected = 0usize;
    for (i, env) in envelopes.iter().enumerate() {
        for _ in 0..env.requests {
            let va = sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap();
            memif
                .submit(
                    &mut sys,
                    &mut sim,
                    MoveSpec::migrate(va, PAGES, PAGE, NodeId(1))
                        .with_tenant(TenantId(1 + i as u16)),
                )
                .unwrap();
            expected += 1;
        }
    }

    let check = |sys: &System| {
        for (i, env) in envelopes.iter().enumerate() {
            let stats = sys
                .qos
                .stats(TenantId(1 + i as u16))
                .expect("registered tenant");
            if let Some(cap) = env.inflight_cap {
                assert!(
                    stats.inflight <= u64::from(cap),
                    "tenant {i}: inflight {} exceeds cap {cap}",
                    stats.inflight
                );
            }
            if let Some(quota) = env.descriptor_quota {
                assert!(
                    stats.descriptors_held <= u64::from(quota),
                    "tenant {i}: descriptors {} exceed quota {quota}",
                    stats.descriptors_held
                );
            }
        }
    };
    check(&sys);
    while sim.step(&mut sys) {
        check(&sys);
    }

    let mut completed = 0usize;
    while memif.retrieve_completed(&mut sys).unwrap().is_some() {
        completed += 1;
    }
    assert_eq!(
        completed, expected,
        "every request — parked or not — must reach a terminal status"
    );
    for (i, env) in envelopes.iter().enumerate() {
        let stats = sys.qos.stats(TenantId(1 + i as u16)).unwrap();
        assert_eq!(
            stats.retired as usize, env.requests,
            "tenant {i}: all requests retired"
        );
        assert_eq!(stats.inflight, 0, "tenant {i}: accounting drains to zero");
        assert_eq!(stats.parked, 0, "tenant {i}: no request left parked");
    }
    let device = sys.device(memif.device()).expect("device still open");
    let (parked, readmitted) = (
        device.stats.requests_parked,
        device.stats.requests_readmitted,
    );
    memif.close(&mut sys).unwrap();
    (parked, readmitted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any roster of tenant envelopes, admission control holds the
    /// hard quota invariant at *every* event boundary, and parking
    /// never strands a request.
    #[test]
    fn quotas_never_exceeded(
        envelopes in proptest::collection::vec(envelope_strategy(), 1..5),
        shards in 1usize..3,
    ) {
        let (parked, readmitted) = run_quota_workload(&envelopes, shards);
        prop_assert_eq!(
            parked, readmitted,
            "every parked request is re-admitted exactly once"
        );
    }
}

/// A single-slot tenant flooding the device must observably park — and
/// the park/re-admit counters must reconcile while everything retires.
#[test]
fn tight_cap_parks_and_readmits() {
    let envelopes = [Envelope {
        weight: 1,
        inflight_cap: Some(1),
        descriptor_quota: None,
        requests: 5,
    }];
    let (parked, readmitted) = run_quota_workload(&envelopes, 1);
    assert!(parked > 0, "a 1-slot tenant with 5 requests must park");
    assert_eq!(parked, readmitted);
}

/// QoS enabled with only root-tenant traffic must be event-for-event
/// identical to the stock configuration: the weighted-fair machinery
/// may not perturb the schedule until a second tenant actually shows
/// up. This is what keeps the golden figures and committed traces
/// byte-stable.
#[test]
fn root_only_qos_is_event_identical() {
    let run = |config: MemifConfig| {
        let mut sys = System::keystone_ii();
        sys.enable_event_log();
        let mut sim = Sim::new();
        let space = sys.new_space();
        let memif = Memif::open(&mut sys, space, config).unwrap();
        for r in 0..6u64 {
            let va = sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap();
            memif
                .submit(
                    &mut sys,
                    &mut sim,
                    MoveSpec::migrate(va, PAGES, PAGE, NodeId(1)).with_user_data(r),
                )
                .unwrap();
        }
        sim.run(&mut sys);
        while memif.retrieve_completed(&mut sys).unwrap().is_some() {}
        memif.close(&mut sys).unwrap();
        sys.take_event_log()
    };
    let stock = run(MemifConfig::default());
    let qos_on = run(MemifConfig {
        qos: true,
        ..MemifConfig::default()
    });
    assert!(!stock.is_empty(), "event log must capture the run");
    assert_eq!(
        stock, qos_on,
        "qos=true with a lone root tenant must not reshape the event stream"
    );
}
