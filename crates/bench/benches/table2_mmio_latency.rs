//! Table II: 4-byte MMIO register reads from the NIC while sweeping the
//! root-complex latency 50–150 ns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcisim_kernel::tick::ns;
use pcisim_system::prelude::*;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_mmio_latency");
    g.sample_size(10);
    for lat in [50u64, 75, 100, 125, 150] {
        g.bench_with_input(BenchmarkId::from_parameter(lat), &lat, |b, &lat| {
            b.iter(|| {
                let out = run_cold(&MmioExperiment {
                    rc_latency: ns(lat),
                    reads: 16,
                    ..MmioExperiment::default()
                });
                assert!(out.completed);
                out.mean_ns
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
