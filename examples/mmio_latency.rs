//! MMIO latency exploration (the Table II experiment as an API example).
//!
//! Attaches the 8254x-pcie NIC directly to a root port, then times 4-byte
//! register reads from the CPU while sweeping the root-complex processing
//! latency — the kernel-module measurement of the paper's Table II.
//!
//! ```text
//! cargo run --release --example mmio_latency
//! cargo run --release --example mmio_latency -- --trace [PATH]
//! ```
//!
//! With `--trace`, one run is re-executed with full event tracing: a
//! Chrome/Perfetto trace (loadable at <https://ui.perfetto.dev>) is written
//! to PATH (default `mmio_trace.json`) and a per-stage latency-attribution
//! table is printed whose stages sum to the measured end-to-end latency.

use pcisim::kernel::tick::ns;
use pcisim::system::prelude::*;

const PAPER: [(u64, f64); 5] = [(50, 318.0), (75, 358.0), (100, 398.0), (125, 438.0), (150, 517.0)];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("4-byte MMIO read from a NIC register, root-complex latency swept:\n");
    println!(
        "{:>16} {:>14} {:>12} {:>8}",
        "rc latency (ns)", "measured (ns)", "paper (ns)", "delta"
    );
    for (lat, paper) in PAPER {
        let out = run_cold(&MmioExperiment {
            rc_latency: ns(lat),
            reads: 64,
            ..MmioExperiment::default()
        });
        assert!(out.completed);
        println!("{:>16} {:>14.0} {:>12.0} {:>+8.0}", lat, out.mean_ns, paper, out.mean_ns - paper);
    }
    println!("\nEvery MMIO read crosses the root complex twice (request and");
    println!("response), so each 25 ns of root-complex latency costs ~50 ns of");
    println!("access latency — the paper measured ~40 ns per step.");

    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        let path = args.get(pos + 1).cloned().unwrap_or_else(|| "mmio_trace.json".into());
        trace_run(&path);
    }
}

/// Re-runs the 150 ns point with tracing on; dumps Perfetto JSON and the
/// per-stage attribution. `cpu_overhead` is zeroed so that the traced
/// stages partition the measured latency exactly.
fn trace_run(path: &str) {
    let (out, log) = run_traced(&MmioExperiment { rc_latency: ns(150), reads: 8, cpu_overhead: 0 });
    assert!(out.completed);
    std::fs::write(path, log.to_perfetto_json()).expect("write trace file");
    println!("\nPerfetto trace written to {path} (open in ui.perfetto.dev).");

    let attr = log.attribution();
    println!("\nWhere each MMIO read's {:.0} ns goes:\n", out.mean_ns);
    println!("{}", attr.render());
    let sum: f64 = Stage::ALL.iter().map(|&s| attr.mean_stage_ns(s)).sum();
    assert!(
        (sum - out.mean_ns).abs() < 0.5,
        "stage means ({sum:.1} ns) must sum to the measured latency ({:.1} ns)",
        out.mean_ns
    );
    println!("The stages sum to {sum:.0} ns — exactly the measured mean.");
}
