//! Ablations over design choices the paper calls out:
//!
//! * posted vs non-posted DMA writes (§VI-B blames the missing posted
//!   writes for part of the bandwidth gap);
//! * immediate vs batched acknowledgements (§V-C's ACK timer);
//! * the width-scaled vs x1-evaluated replay-timeout formula;
//! * Gen 2 vs Gen 3 encoding overhead at the device-level microbench.

use criterion::{criterion_group, criterion_main, Criterion};
use pcisim_pcie::params::LinkWidth;
use pcisim_system::prelude::*;

fn posted_writes(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_posted_writes");
    g.sample_size(10);
    for (name, posted) in [("non_posted", false), ("posted", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let out = run_cold(&DdExperiment {
                    block_bytes: 1024 * 1024,
                    posted_writes: posted,
                    ..DdExperiment::default()
                });
                assert!(out.completed);
                out.throughput_gbps
            });
        });
    }
    g.finish();
}

fn ack_batching(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_ack_batching");
    g.sample_size(10);
    for (name, immediate) in [("batched", false), ("immediate", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let out = run_cold(&DdExperiment {
                    block_bytes: 1024 * 1024,
                    ack_immediate: immediate,
                    ..DdExperiment::default()
                });
                assert!(out.completed);
                out.throughput_gbps
            });
        });
    }
    g.finish();
}

fn sector_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sector_width");
    g.sample_size(10);
    for lanes in [1u8, 4, 8] {
        g.bench_function(format!("x{lanes}"), |b| {
            b.iter(|| {
                let out = run_cold(&SectorMicrobench { width: LinkWidth::new(lanes), sectors: 64 });
                assert!(out.completed);
                out.throughput_gbps
            });
        });
    }
    g.finish();
}

fn cut_through(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_cut_through");
    g.sample_size(10);
    for (name, cut) in [("store_and_forward", false), ("cut_through", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut config = SystemConfig::validation();
                config.root_link.cut_through = cut;
                config.device_link.cut_through = cut;
                let mut built = build_system(config);
                let report = built
                    .attach_dd(0, DdConfig { block_bytes: 1024 * 1024, ..DdConfig::default() });
                built.sim.run(pcisim_kernel::tick::TICKS_PER_SEC, u64::MAX);
                let r = report.borrow();
                assert!(r.done);
                r.throughput_gbps()
            });
        });
    }
    g.finish();
}

fn credit_flow_control(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_credit_fc");
    g.sample_size(10);
    for (name, credits) in [("acknak_only", None), ("credit_fc_16", Some(16))] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let out = run_cold(&DdExperiment {
                    block_bytes: 1024 * 1024,
                    width_all: Some(LinkWidth::X8),
                    credit_fc: credits,
                    ..DdExperiment::default()
                });
                assert!(out.completed);
                out.throughput_gbps
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    posted_writes,
    ack_batching,
    sector_width,
    cut_through,
    credit_flow_control
);
criterion_main!(benches);
