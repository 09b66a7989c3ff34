//! Posted-write ablation (the paper's future-work discussion, §VI-B).
//!
//! The paper's model (like gem5) answers every DMA write with a response;
//! the disk must collect a whole sector's responses before starting the
//! next sector. Real PCI-Express posts writes — no response, no barrier.
//! This example measures what that limitation costs across link widths.
//!
//! ```text
//! cargo run --release --example posted_writes
//! ```

use pcisim::pcie::params::{LinkConfig, LinkWidth};
use pcisim::system::prelude::*;

fn main() {
    println!("dd throughput with and without posted DMA writes (8 MB block):\n");
    println!("{:>6} {:>16} {:>13} {:>8}", "width", "non-posted Gb/s", "posted Gb/s", "gain");
    for lanes in [1u8, 2, 4, 8] {
        let base = DdExperiment { block_bytes: 8 * 1024 * 1024, ..DdExperiment::default() }
            .with_links(|link| LinkConfig { width: LinkWidth::new(lanes), ..link });
        let nonposted = run_cold(&base);
        let posted = run_cold(&DdExperiment { posted_writes: true, ..base });
        assert!(nonposted.completed && posted.completed);
        println!(
            "{:>6} {:>16.3} {:>13.3} {:>7.1}%",
            format!("x{lanes}"),
            nonposted.throughput_gbps,
            posted.throughput_gbps,
            100.0 * (posted.throughput_gbps / nonposted.throughput_gbps - 1.0)
        );
    }
    println!("\nPosted writes remove the per-sector response barrier and the");
    println!("write-response TLPs themselves, which the paper identifies as one");
    println!("reason its gem5 model undershoots the physical link (§VI-B).");
}
