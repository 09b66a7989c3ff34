//! Fig. 9(b): dd throughput while sweeping every link's width x1–x8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcisim_pcie::params::LinkWidth;
use pcisim_system::prelude::*;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9b_link_width");
    g.sample_size(10);
    for lanes in [1u8, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("width", format!("x{lanes}")), &lanes, |b, &lanes| {
            b.iter(|| {
                let out = run_cold(&DdExperiment {
                    block_bytes: 1024 * 1024,
                    width_all: Some(LinkWidth::new(lanes)),
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
