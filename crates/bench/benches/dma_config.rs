//! Criterion micro-benchmarks of DMA-engine configuration: fresh
//! descriptor programming vs chain reuse (§5.3), on the real chain
//! manager and PaRAM model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memif_hwsim::dma::{DmaEngine, SgSegment};
use memif_hwsim::{CostModel, PhysAddr};

fn segments(n: u64) -> Vec<SgSegment> {
    (0..n)
        .map(|i| SgSegment {
            src: PhysAddr::new(0x8_0000_0000 + i * 4096),
            dst: PhysAddr::new(0x0C00_0000 + i * 4096),
            bytes: 4096,
        })
        .collect()
}

fn bench_configure(c: &mut Criterion) {
    let cost = CostModel::keystone_ii();
    let mut g = c.benchmark_group("dma_configure");
    for n in [4u64, 32, 128] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("reuse", n), &n, |b, &n| {
            let mut engine = DmaEngine::new();
            // Warm the chain once.
            let t = engine.configure(&segments(n), &cost).unwrap();
            engine_release(&mut engine, t.chain);
            b.iter(|| {
                let t = engine.configure(&segments(n), &cost).unwrap();
                let chain = t.chain;
                let cost_ns = t.config_cost.as_ns();
                engine_release(&mut engine, chain);
                cost_ns
            });
        });
        g.bench_with_input(BenchmarkId::new("fresh", n), &n, |b, &n| {
            let mut engine = DmaEngine::new();
            engine.set_reuse_enabled(false);
            b.iter(|| {
                let t = engine.configure(&segments(n), &cost).unwrap();
                let chain = t.chain;
                let cost_ns = t.config_cost.as_ns();
                engine_release(&mut engine, chain);
                cost_ns
            });
        });
    }
    g.finish();
}

fn engine_release(engine: &mut DmaEngine, chain: memif_hwsim::dma::ChainId) {
    engine.release_chain(chain);
}

criterion_group!(benches, bench_configure);
criterion_main!(benches);
