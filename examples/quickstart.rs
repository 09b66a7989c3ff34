//! Quickstart: build the paper's validation system, run `dd`, print what
//! happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pcisim::system::prelude::*;

fn main() {
    // The validation topology of §VI-A: root complex —x4— switch —x1— IDE
    // disk, everything Gen 2, 150 ns routers, 16-deep port buffers.
    let mut built = build_topology(Topology::validation());

    println!("enumeration found:");
    println!("{}", built.report);
    let probe = built.probe.as_ref().expect("a single endpoint goes through the driver probe");
    println!(
        "driver probe: disk at {} BAR0={:#x} interrupt={:?}\n",
        probe.bdf, probe.bar0, probe.interrupt
    );

    // dd if=/dev/disk of=/dev/null bs=8M count=1 iflag=direct
    let report =
        built.attach_dd(0, DdConfig { block_bytes: 8 * 1024 * 1024, ..DdConfig::default() });

    let outcome = built.sim.run(pcisim::kernel::tick::TICKS_PER_SEC, u64::MAX);
    let r = report.borrow();
    assert!(r.done, "dd did not finish: {outcome:?}");

    println!(
        "dd read {} MB in {:.3} ms of simulated time: {:.3} Gb/s",
        r.bytes / (1024 * 1024),
        pcisim::kernel::tick::to_seconds(r.end - r.start) * 1e3,
        r.throughput_gbps()
    );
    println!(
        "simulator dispatched {} events ({} disk commands)",
        built.sim.events_processed(),
        r.commands
    );
}
