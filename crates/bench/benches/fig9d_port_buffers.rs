//! Fig. 9(d): dd over x8 links while sweeping switch/root port buffers
//! 16–28 with the replay buffer restored to 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcisim_pcie::params::LinkWidth;
use pcisim_system::prelude::*;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9d_port_buffers");
    g.sample_size(10);
    for pb in [16usize, 20, 24, 28] {
        g.bench_with_input(BenchmarkId::from_parameter(pb), &pb, |b, &pb| {
            b.iter(|| {
                let out = run_cold(&DdExperiment {
                    block_bytes: 1024 * 1024,
                    width_all: Some(LinkWidth::X8),
                    port_buffers: pb,
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
