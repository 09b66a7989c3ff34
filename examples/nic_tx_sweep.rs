//! NIC transmit sweep: the 100 Gb/s-NIC motivation from the paper's
//! introduction, at small scale.
//!
//! The NIC fetches every frame over DMA reads through the PCI-Express
//! link; on narrow links the fabric is the bottleneck, on wide links the
//! network medium is. The crossover is exactly the kind of question the
//! paper's model exists to answer.
//!
//! ```text
//! cargo run --release --example nic_tx_sweep
//! cargo run --release --example nic_tx_sweep -- --trace [PATH]
//! ```
//!
//! With `--trace`, a small traced TX run dumps a Chrome/Perfetto trace
//! (loadable at <https://ui.perfetto.dev>) showing doorbells, DMA
//! descriptor/buffer fetches, link-layer traffic and the interrupt.

use pcisim::pcie::params::LinkWidth;
use pcisim::system::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("NIC TX of 256 x 1514 B frames, link width swept (Gen 2):\n");
    println!("{:>6} {:>12} {:>14} {:>12}", "width", "Gb/s", "frames/s", "DMA TLPs");
    for lanes in [1u8, 2, 4, 8, 16] {
        let out = run_cold(&NicTxExperiment {
            width: LinkWidth::new(lanes),
            frames: 256,
            ..NicTxExperiment::default()
        });
        assert!(out.completed);
        println!(
            "{:>6} {:>12.3} {:>14.0} {:>12}",
            format!("x{lanes}"),
            out.throughput_gbps,
            out.frames_per_sec,
            out.dma_read_tlps
        );
    }
    println!("\nNarrow links starve the DMA engine. Beyond x4 the per-frame");
    println!("latency chain — descriptor fetch round trip, 1.2 us on the");
    println!("medium, status write-back, interrupt — dominates, and extra");
    println!("lanes buy almost nothing: the PCI-Express model exposes exactly");
    println!("where the crossover sits.");

    println!("\nNIC RX of 256 x 1514 B frames at ~5 Gb/s line rate:\n");
    println!("{:>6} {:>16} {:>10}", "width", "delivered Gb/s", "dropped");
    for lanes in [1u8, 2, 4, 8] {
        let out = run_cold(&NicRxExperiment {
            width: LinkWidth::new(lanes),
            frames: 256,
            ..NicRxExperiment::default()
        });
        assert!(out.completed);
        let total = out.frames_delivered + out.frames_dropped;
        println!(
            "{:>6} {:>16.3} {:>9.1}%",
            format!("x{lanes}"),
            out.delivered_gbps,
            100.0 * out.frames_dropped as f64 / total as f64
        );
    }
    println!("\nInbound, the slot either sustains the medium or the NIC's");
    println!("internal FIFO overflows and frames are lost — a Gen 2 x1 slot");
    println!("cannot carry a 5 Gb/s stream, exactly the class of question the");
    println!("paper's interconnect model exists to answer.");

    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        let path = args.get(pos + 1).cloned().unwrap_or_else(|| "nic_tx_trace.json".into());
        let (out, log) = run_traced(&NicTxExperiment { frames: 8, ..NicTxExperiment::default() });
        assert!(out.completed);
        std::fs::write(&path, log.to_perfetto_json()).expect("write trace file");
        println!("\nPerfetto trace of an 8-frame x1 TX run written to {path}");
        println!("(open in ui.perfetto.dev: doorbell, descriptor and buffer");
        println!("DMA reads, the link-layer ACK stream, and the completion");
        println!("interrupt are all visible per component).");
    }
}
