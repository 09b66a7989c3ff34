//! Fig. 9(c): dd over x8 links while sweeping the replay buffer size 1–4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcisim_pcie::params::LinkWidth;
use pcisim_system::prelude::*;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9c_replay_buffer");
    g.sample_size(10);
    for rb in [1usize, 2, 3, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(rb), &rb, |b, &rb| {
            b.iter(|| {
                let out = run_cold(&DdExperiment {
                    block_bytes: 1024 * 1024,
                    width_all: Some(LinkWidth::X8),
                    replay_buffer: rb,
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
