//! Fig. 9(a): dd throughput while sweeping the switch processing latency
//! (50–150 ns) on the validation topology, criterion-sampled at a reduced
//! block size. The `repro` binary prints the full table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcisim_kernel::tick::ns;
use pcisim_system::prelude::*;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9a_switch_latency");
    g.sample_size(10);
    for lat in [50u64, 100, 150] {
        g.bench_with_input(BenchmarkId::from_parameter(lat), &lat, |b, &lat| {
            b.iter(|| {
                let out = run_cold(&DdExperiment {
                    block_bytes: 1024 * 1024,
                    switch_latency: ns(lat),
                    ..DdExperiment::default()
                });
                assert!(out.completed);
                out.throughput_gbps
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
