//! Link-width exploration (the Fig. 9(b) experiment as an API example).
//!
//! Sweeps every link in the validation topology from x1 to x8 and prints
//! `dd` throughput plus the data-link-layer health counters that explain
//! the x8 behaviour: replays and replay-timeouts on the device's upstream
//! link.
//!
//! ```text
//! cargo run --release --example link_width_sweep [block_mb]
//! ```

use pcisim::pcie::params::{LinkConfig, LinkWidth};
use pcisim::system::prelude::*;

fn main() {
    let block_mb: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    println!("dd over the validation topology, {block_mb} MB block, all links swept:\n");
    println!(
        "{:>6} {:>12} {:>9} {:>10} {:>14}",
        "width", "dd (Gb/s)", "replay%", "timeout%", "upstream TLPs"
    );
    let mut previous: Option<f64> = None;
    for lanes in [1u8, 2, 4, 8] {
        let exp = DdExperiment { block_bytes: block_mb * 1024 * 1024, ..DdExperiment::default() };
        let out =
            run_cold(&exp.with_links(|link| LinkConfig { width: LinkWidth::new(lanes), ..link }));
        assert!(out.completed, "run must finish");
        let gain =
            previous.map(|p| format!("  ({:.2}x)", out.throughput_gbps / p)).unwrap_or_default();
        println!(
            "{:>6} {:>12.3} {:>8.1}% {:>9.1}% {:>14}{gain}",
            format!("x{lanes}"),
            out.throughput_gbps,
            out.replay_pct,
            out.timeout_pct,
            out.upstream_tlps,
        );
        previous = Some(out.throughput_gbps);
    }
    println!("\nNote how the x8 configuration stops gaining and starts replaying:");
    println!("the switch port cannot service TLPs as fast as the x8 link delivers");
    println!("them, its buffers fill, deliveries bounce, and the replay timer");
    println!("recovers them — the congestion behaviour of the paper's Fig. 9(b).");
}
