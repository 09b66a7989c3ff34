//! Fabric contention: two disks sharing one root link.
//!
//! PCI-Express is "a virtual point-to-point connection between a device
//! and a processor, enabling the processor to simultaneously communicate
//! with multiple devices" (paper §I) — but devices behind one switch
//! still share the root link. This example puts an IDE disk on each
//! switch downstream port and streams from both at once.
//!
//! ```text
//! cargo run --release --example fabric_contention
//! ```

use pcisim::devices::ide::IdeDiskConfig;
use pcisim::kernel::tick::TICKS_PER_SEC;
use pcisim::pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim::pcie::router::RouterConfig;
use pcisim::system::prelude::*;

const BLOCK: u64 = 4 * 1024 * 1024;

/// Streams one block from every disk of `sys` at once: Gb/s per disk.
fn stream(mut sys: TopologySystem) -> Vec<f64> {
    let dd = DdConfig { block_bytes: BLOCK, ..DdConfig::default() };
    let disks = sys.endpoints_of(EndpointKind::Disk);
    let reports: Vec<_> = disks.into_iter().map(|i| sys.attach_dd(i, dd.clone())).collect();
    sys.sim.run(TICKS_PER_SEC, u64::MAX);
    reports
        .iter()
        .map(|r| {
            assert!(r.borrow().done);
            r.borrow().throughput_gbps()
        })
        .collect()
}

fn solo(root_width: LinkWidth) -> f64 {
    let gen2 = |width| LinkConfig::new(Generation::Gen2, width);
    let topo = Topology::chain(
        gen2(root_width),
        Some((RouterConfig::default(), gen2(LinkWidth::X1))),
        DeviceSpec::Disk(IdeDiskConfig::default()),
    );
    stream(build_topology(topo))[0]
}

fn dual(root_width: LinkWidth) -> (f64, f64) {
    let gbps = stream(build_topology(Topology::dual_disk(root_width)));
    (gbps[0], gbps[1])
}

fn main() {
    println!("two Gen 2 x1 disks behind one switch, root link width swept:\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "root link", "solo Gb/s", "disk0 Gb/s", "disk1 Gb/s", "aggregate"
    );
    for width in [LinkWidth::X1, LinkWidth::X2, LinkWidth::X4] {
        let s = solo(width);
        let (a, b) = dual(width);
        println!("{:>10} {:>12.3} {:>12.3} {:>12.3} {:>12.3}", width.to_string(), s, a, b, a + b);
    }
    println!("\nWith an x1 root link the two streams halve each other; from x2");
    println!("upward the root link stops being the shared bottleneck and each");
    println!("disk runs at its solo x1 rate — fan-out the old PCI bus could");
    println!("never offer.");
}
