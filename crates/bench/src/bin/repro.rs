//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--full] [--jobs N] [--shards N] [--warm-start] [--trace PATH]
//!       [--checkpoint PATH] [--bench-json PATH] [--bench-check PATH]
//!       [fig9a] [fig9b] [fig9c] [fig9d] [table2] [sector] [ext] [faults] [topology]
//!       [msix] [pmd] [shard] [cxl] [virtio] [all]
//! ```
//!
//! `ext` runs the extension experiments beyond the paper's evaluation:
//! the legacy-crossbar baseline, dual-disk fabric contention, and the
//! NIC transmit sweep.
//!
//! `faults` (alias `--faults`) runs the deterministic fault campaign:
//! `dd` goodput under link-level error injection, swept over the
//! `error_interval` ladder at several generation/width points.
//!
//! `topology` (alias `--topology`) runs the multi-endpoint contention
//! experiment: two NIC transmit streams behind one shared upstream link
//! vs. split across two root ports — bandwidth share and DMA p99 tail
//! latency per placement.
//!
//! `msix` (alias `--msix`) runs the interrupt-delivery experiment: the
//! same NIC transmit load over legacy INTx vs. per-queue MSI-X vectors,
//! plus queue-count and per-vector moderation sweeps.
//!
//! `pmd` (alias `--pmd`) runs the heavy-traffic poll-mode experiment:
//! the classic interrupt-driven receive driver vs. the busy-poll driver
//! (interrupts fully masked — zero doorbells) on identical million-flow
//! heavy-tailed traffic, then a warm-forked offered-load ladder. Along
//! the way it asserts serial ≡ sharded bit-identity and that replaying
//! the recorded binary trace reproduces the live generator bit-for-bit.
//!
//! `cxl` (alias `--cxl`) runs the CXL.mem memory-expansion experiment:
//! host load/store streams against local DRAM vs a CXL-attached expander
//! (open-loop window sweep), the placement penalty of putting the
//! expander behind a switch (dependent pointer chase), and 2–4-way HDM
//! interleaving aggregate bandwidth — asserting serial ≡ sharded
//! bit-identity on the interleaved tree.
//!
//! `virtio` (alias `--virtio`) runs the virtio-over-PCIe experiment:
//! virtio-blk against the IDE `dd` baseline on per-request latency,
//! virtio-net transmit against the e1000e NIC on payload throughput,
//! and a queue-depth sweep of the blk virtqueue — asserting serial ≡
//! sharded bit-identity on the mixed blk + net + IDE fleet.
//!
//! `shard` (alias `--shard`) runs the shard-scaling experiment: the same
//! multi-endpoint `dd` run partitioned across 1, 2, … worker shards
//! (conservative link-lookahead sync), printing aggregate events/sec per
//! shard count and asserting every count reproduces the serial quiesce
//! tick and stats FNV bit-for-bit. `--shards N` raises the top of the
//! ladder (default 4).
//!
//! `--jobs N` fans the independent configurations of each Fig. 9 / Table II
//! sweep across N worker threads (default: all available cores). Every
//! configuration runs its own `Simulation`, and results are re-assembled in
//! input order, so the printed tables are bit-identical to `--jobs 1`.
//!
//! `--warm-start` forks every `dd` / fault sweep point from a checkpoint
//! taken after one warmed-up reference run instead of building and
//! enumerating each point from scratch. Tables are bit-identical to cold
//! runs; enumeration and the driver probe execute once per block size.
//!
//! `--checkpoint PATH` demonstrates file-backed checkpoint/restore: it
//! warms up the validation system, writes the checkpoint to PATH,
//! rebuilds the tree from the warm seed, restores from the file and runs
//! to completion, printing the cold-vs-restored comparison.
//!
//! `--trace PATH` additionally re-runs the Table II point with full event
//! tracing: a Chrome/Perfetto trace is written to PATH and a per-stage
//! latency attribution of the MMIO read is printed.
//!
//! `--bench-json PATH` measures the `simulator_speed` microbenchmark
//! scenarios and writes a machine-readable speed report (events/sec,
//! per-sweep wall-clock, host metadata) to PATH.
//!
//! `--bench-check PATH` re-measures the scenarios and exits non-zero if
//! ops/sec regressed more than 30% against the `current` section of the
//! JSON at PATH (the CI smoke gate). No figures run in this mode.
//!
//! By default block sizes are scaled down 16× (4–32 MB instead of the
//! paper's 64–512 MB) so the whole suite finishes in seconds; `--full`
//! runs the paper's sizes.

use std::time::Instant;

use pcisim_bench::{benchjson, reference, table};
use pcisim_kernel::tick::ns;
use pcisim_pcie::params::{Generation, LinkWidth};
use pcisim_system::prelude::*;

const MB: u64 = 1024 * 1024;

struct Opts {
    full: bool,
    jobs: usize,
    warm_start: bool,
    shards: usize,
}

fn block_sizes(opts: &Opts) -> Vec<u64> {
    if opts.full {
        vec![64 * MB, 128 * MB, 256 * MB, 512 * MB]
    } else {
        vec![4 * MB, 8 * MB, 16 * MB, 32 * MB]
    }
}

fn fmt_block(bytes: u64) -> String {
    format!("{}MB", bytes / MB)
}

/// Runs every `DdExperiment` in `configs` across the sweep runner —
/// warm-started from one checkpoint per block size under `--warm-start`,
/// cold otherwise — asserting completion, and returns outcomes in input
/// order. Both paths produce bit-identical tables.
fn dd_sweep(opts: &Opts, label: &str, configs: &[DdExperiment]) -> Vec<DdOutcome> {
    let outcomes = if opts.warm_start {
        run_dd_sweep_warm(configs, opts.jobs)
    } else {
        run_sweep(configs, opts.jobs, run_dd_experiment)
    };
    for (out, config) in outcomes.iter().zip(configs) {
        assert!(out.completed, "{label} run must complete: {config:?}");
    }
    outcomes
}

fn fig9a(opts: &Opts) {
    println!("\n== Fig. 9(a): dd throughput vs block size, switch latency sweep ==");
    println!(
        "   paper: sim within {:.0}% of phys (~{:.1} Gb/s); 150→50 ns switch gains ~{} Mb/s (~3%)",
        reference::PHYS_BAND_FRACTION * 100.0,
        reference::PHYS_DD_GBPS,
        reference::SWITCH_LATENCY_GAIN_MBPS
    );
    const LATS: [u64; 3] = [50, 100, 150];
    let blocks = block_sizes(opts);
    let configs: Vec<DdExperiment> = blocks
        .iter()
        .flat_map(|&block| {
            LATS.iter().map(move |&lat| DdExperiment {
                block_bytes: block,
                switch_latency: ns(lat),
                ..DdExperiment::default()
            })
        })
        .collect();
    let outcomes = dd_sweep(opts, "fig9a", &configs);
    let mut rows = Vec::new();
    for (bi, &block) in blocks.iter().enumerate() {
        let mut row = vec![fmt_block(block)];
        for li in 0..LATS.len() {
            row.push(format!("{:.3}", outcomes[bi * LATS.len() + li].throughput_gbps));
        }
        row.push(format!("{:.2}", reference::PHYS_DD_GBPS));
        rows.push(row);
    }
    println!(
        "{}",
        table::render(&["block", "L50 (Gb/s)", "L100 (Gb/s)", "L150 (Gb/s)", "phys(paper)"], &rows)
    );
}

fn fig9b(opts: &Opts) {
    println!("\n== Fig. 9(b): dd throughput vs link width (all links swept) ==");
    println!(
        "   paper: x1→x2 = {:.2}x; smaller gain to x4; drop at x8 with {:.0}% replays",
        reference::X1_TO_X2_GAIN,
        reference::X8_REPLAY_PCT
    );
    const LANES: [u8; 4] = [1, 2, 4, 8];
    let blocks = block_sizes(opts);
    let configs: Vec<DdExperiment> = blocks
        .iter()
        .flat_map(|&block| {
            LANES.iter().map(move |&lanes| DdExperiment {
                block_bytes: block,
                width_all: Some(LinkWidth::new(lanes)),
                ..DdExperiment::default()
            })
        })
        .collect();
    let outcomes = dd_sweep(opts, "fig9b", &configs);
    let mut rows = Vec::new();
    for (bi, &block) in blocks.iter().enumerate() {
        let mut row = vec![fmt_block(block)];
        let x1 = outcomes[bi * LANES.len()].throughput_gbps;
        for (li, &lanes) in LANES.iter().enumerate() {
            let out = &outcomes[bi * LANES.len() + li];
            if lanes == 8 {
                row.push(format!("{:.3} ({:.0}% rep)", out.throughput_gbps, out.replay_pct));
            } else {
                row.push(format!("{:.3}", out.throughput_gbps));
            }
            if lanes == 2 {
                row.push(format!("{:.2}x", out.throughput_gbps / x1));
            }
        }
        rows.push(row);
    }
    println!("{}", table::render(&["block", "x1", "x2", "x1→x2", "x4", "x8"], &rows));
}

fn fig9c(opts: &Opts) {
    println!("\n== Fig. 9(c): x8 links, replay buffer size sweep ==");
    println!("   paper timeout rates: rb1=0%, rb2=6%, rb3~27%, rb4~27%; rb3/4 throughput considerably lower");
    let block = if opts.full { 256 * MB } else { 16 * MB };
    const RBS: [usize; 4] = [1, 2, 3, 4];
    let configs: Vec<DdExperiment> = RBS
        .iter()
        .map(|&rb| DdExperiment {
            block_bytes: block,
            width_all: Some(LinkWidth::X8),
            replay_buffer: rb,
            ..DdExperiment::default()
        })
        .collect();
    let outcomes = dd_sweep(opts, "fig9c", &configs);
    let mut rows = Vec::new();
    for (&rb, out) in RBS.iter().zip(&outcomes) {
        let paper = reference::FIG9C_TIMEOUT_PCT.iter().find(|&&(b, _)| b == rb).unwrap().1;
        rows.push(vec![
            rb.to_string(),
            format!("{:.3}", out.throughput_gbps),
            format!("{:.1}%", out.timeout_pct),
            format!("{:.1}%", out.replay_pct),
            format!("{paper:.0}%"),
        ]);
    }
    println!(
        "{}",
        table::render(&["replay buf", "dd (Gb/s)", "timeout%", "replay%", "paper timeout%"], &rows)
    );
}

fn fig9d(opts: &Opts) {
    println!("\n== Fig. 9(d): x8 links, switch/root port buffer sweep (replay buffer 4) ==");
    println!(
        "   paper: jump from 16→20, saturation at ~{:.2} Gb/s; timeouts 27%→20%→0%→0%",
        reference::SATURATION_GBPS
    );
    let block = if opts.full { 256 * MB } else { 16 * MB };
    const PBS: [usize; 4] = [16, 20, 24, 28];
    let configs: Vec<DdExperiment> = PBS
        .iter()
        .map(|&pb| DdExperiment {
            block_bytes: block,
            width_all: Some(LinkWidth::X8),
            port_buffers: pb,
            ..DdExperiment::default()
        })
        .collect();
    let outcomes = dd_sweep(opts, "fig9d", &configs);
    let mut rows = Vec::new();
    for (&pb, out) in PBS.iter().zip(&outcomes) {
        let paper = reference::FIG9D_TIMEOUT_PCT.iter().find(|&&(b, _)| b == pb).unwrap().1;
        rows.push(vec![
            pb.to_string(),
            format!("{:.3}", out.throughput_gbps),
            format!("{:.1}%", out.timeout_pct),
            format!("{:.1}%", out.replay_pct),
            format!("{paper:.0}%"),
        ]);
    }
    println!(
        "{}",
        table::render(&["port buf", "dd (Gb/s)", "timeout%", "replay%", "paper timeout%"], &rows)
    );
}

fn table2(opts: &Opts) {
    println!("\n== Table II: root-complex latency vs MMIO read access latency ==");
    let configs: Vec<MmioExperiment> = reference::TABLE_II
        .iter()
        .map(|&(lat, _)| MmioExperiment { rc_latency: ns(lat), ..MmioExperiment::default() })
        .collect();
    let outcomes = run_sweep(&configs, opts.jobs, run_mmio_experiment);
    let mut rows = Vec::new();
    for (&(lat, paper), out) in reference::TABLE_II.iter().zip(&outcomes) {
        assert!(out.completed, "table2 run must complete");
        rows.push(vec![
            lat.to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{paper:.0}"),
            format!("{:+.0}", out.mean_ns - paper),
        ]);
    }
    println!(
        "{}",
        table::render(&["rc latency (ns)", "measured (ns)", "paper (ns)", "delta"], &rows)
    );
}

fn sector(_opts: &Opts) {
    println!("\n== §VI-B device-level: sector throughput over Gen 2 x1 ==");
    let out = run_sector_microbench(LinkWidth::X1, 256);
    assert!(out.completed);
    println!(
        "measured {:.3} Gb/s   paper {:.3} Gb/s   (wire limit 64/84 x 4 = 3.048 Gb/s)",
        out.throughput_gbps,
        reference::SECTOR_LEVEL_GBPS
    );
}

fn ext(opts: &Opts) {
    use pcisim_kernel::tick::TICKS_PER_SEC;
    use pcisim_system::builder::{
        build_dual_disk_system, build_legacy_system, build_system, LegacySystemConfig, SystemConfig,
    };
    use pcisim_system::workload::dd::DdConfig;

    let block = if opts.full { 64 * MB } else { 4 * MB };

    println!(
        "
== Extension: legacy crossbar baseline vs the PCI-Express model =="
    );
    let mut legacy = build_legacy_system(LegacySystemConfig::default());
    let lr = legacy.attach_dd(DdConfig { block_bytes: block, ..DdConfig::default() });
    legacy.sim.run(TICKS_PER_SEC, u64::MAX);
    let mut pcie = build_system(SystemConfig::validation());
    let pr = pcie.attach_dd(DdConfig { block_bytes: block, ..DdConfig::default() });
    pcie.sim.run(TICKS_PER_SEC, u64::MAX);
    let (l, p) = (lr.borrow().throughput_gbps(), pr.borrow().throughput_gbps());
    println!(
        "legacy IOBus (no PCIe model): {l:.3} Gb/s   PCIe Gen2 x1 reality: {p:.3} Gb/s   ({:.1}x overstated)",
        l / p
    );

    println!(
        "
== Extension: dual-disk contention on the shared root link =="
    );
    let mut rows = Vec::new();
    for width in [
        pcisim_pcie::params::LinkWidth::X1,
        pcisim_pcie::params::LinkWidth::X2,
        pcisim_pcie::params::LinkWidth::X4,
    ] {
        let mut config = SystemConfig::validation();
        config.root_link =
            pcisim_pcie::params::LinkConfig::new(pcisim_pcie::params::Generation::Gen2, width);
        let mut sys = build_dual_disk_system(config);
        let r0 = sys.attach_dd(0, DdConfig { block_bytes: block, ..DdConfig::default() });
        let r1 = sys.attach_dd(1, DdConfig { block_bytes: block, ..DdConfig::default() });
        sys.sim.run(TICKS_PER_SEC, u64::MAX);
        let (a, b) = (r0.borrow().throughput_gbps(), r1.borrow().throughput_gbps());
        rows.push(vec![
            width.to_string(),
            format!("{a:.3}"),
            format!("{b:.3}"),
            format!("{:.3}", a + b),
        ]);
    }
    println!("{}", table::render(&["root link", "disk0 Gb/s", "disk1 Gb/s", "aggregate"], &rows));

    println!(
        "
== Extension: NIC transmit sweep (DMA reads through the fabric) =="
    );
    let nic_tx_configs: Vec<NicTxExperiment> = [1u8, 2, 4, 8]
        .iter()
        .map(|&lanes| NicTxExperiment {
            width: LinkWidth::new(lanes),
            frames: if opts.full { 2048 } else { 256 },
            ..NicTxExperiment::default()
        })
        .collect();
    let outcomes = run_sweep(&nic_tx_configs, opts.jobs, run_nic_tx_experiment);
    let mut rows = Vec::new();
    for (config, out) in nic_tx_configs.iter().zip(&outcomes) {
        assert!(out.completed);
        rows.push(vec![
            config.width.to_string(),
            format!("{:.3}", out.throughput_gbps),
            format!("{:.0}", out.frames_per_sec),
        ]);
    }
    println!("{}", table::render(&["width", "Gb/s", "frames/s"], &rows));

    println!("\n== Extension: NIC receive at ~5 Gb/s line rate (DMA writes) ==");
    let nic_rx_configs: Vec<NicRxExperiment> = [1u8, 2, 4, 8]
        .iter()
        .map(|&lanes| NicRxExperiment {
            width: LinkWidth::new(lanes),
            frames: if opts.full { 2048 } else { 256 },
            ..NicRxExperiment::default()
        })
        .collect();
    let outcomes = run_sweep(&nic_rx_configs, opts.jobs, run_nic_rx_experiment);
    let mut rows = Vec::new();
    for (config, out) in nic_rx_configs.iter().zip(&outcomes) {
        assert!(out.completed);
        let total = out.frames_delivered + out.frames_dropped;
        rows.push(vec![
            config.width.to_string(),
            format!("{:.3}", out.delivered_gbps),
            format!("{:.1}%", 100.0 * out.frames_dropped as f64 / total as f64),
        ]);
    }
    println!("{}", table::render(&["width", "delivered Gb/s", "dropped"], &rows));

    println!("\n== Extension: credit-based flow control at x8 (vs the paper's ACK/NAK) ==");
    let mut rows = Vec::new();
    for (name, credits) in [("ack/nak only", None), ("credit FC (16)", Some(16usize))] {
        let out = run_dd_experiment(&DdExperiment {
            block_bytes: block,
            width_all: Some(LinkWidth::X8),
            credit_fc: credits,
            ..DdExperiment::default()
        });
        assert!(out.completed);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", out.throughput_gbps),
            format!("{:.1}%", out.replay_pct),
            format!("{:.1}%", out.timeout_pct),
        ]);
    }
    println!("{}", table::render(&["flow control", "dd (Gb/s)", "replay%", "timeout%"], &rows));
}

/// The deterministic fault campaign: `dd` goodput under link-level error
/// injection, swept over the `error_interval` ladder at several
/// generation/width points. Injection is a pure function of each
/// interface's transmit count, so the table is bit-identical across runs
/// and `--jobs` values.
fn faults(opts: &Opts) {
    println!("\n== Fault campaign: dd goodput under deterministic link error injection ==");
    println!("   a TLP is corrupted when splitmix64(tx_count) hits a multiple of the interval;");
    println!("   smaller interval = harsher (interval 0 = fault-free baseline)");
    let block = if opts.full { 4 * MB } else { 256 * 1024 };
    const POINTS: [(Generation, Option<LinkWidth>, &str); 3] = [
        (Generation::Gen2, None, "Gen2 x4/x1"),
        (Generation::Gen2, Some(LinkWidth::X4), "Gen2 x4 all"),
        (Generation::Gen3, None, "Gen3 x4/x1"),
    ];
    let configs: Vec<FaultExperiment> = POINTS
        .iter()
        .flat_map(|&(generation, width_all, _)| error_rate_ladder(generation, width_all, block))
        .collect();
    let outcomes = if opts.warm_start {
        run_fault_sweep_warm(&configs, opts.jobs)
    } else {
        run_sweep(&configs, opts.jobs, run_fault_experiment)
    };
    let ladder_len = configs.len() / POINTS.len();
    let mut rows = Vec::new();
    for (pi, &(_, _, label)) in POINTS.iter().enumerate() {
        for li in 0..ladder_len {
            let out = &outcomes[pi * ladder_len + li];
            assert!(out.completed, "fault campaign point must converge: {out:?}");
            rows.push(vec![
                label.to_string(),
                if out.error_interval == 0 {
                    "none".to_string()
                } else {
                    format!("1/{}", out.error_interval)
                },
                format!("{:.3}", out.throughput_gbps),
                out.corrupt_drops.to_string(),
                out.replays.to_string(),
                out.naks.to_string(),
                format!("{:#06x}", out.device_aer_cor),
            ]);
        }
    }
    println!(
        "{}",
        table::render(
            &["links", "err rate", "dd (Gb/s)", "corrupt", "replays", "naks", "dev AER cor"],
            &rows
        )
    );
}

/// The multi-endpoint contention tables: identical dual-NIC transmit
/// streams behind one shared switch uplink vs. split across root ports.
/// Placement is the designer's knob; the fabric model prices it.
fn topology(opts: &Opts) {
    println!("\n== Topology: dual-NIC placement — shared uplink vs. split root ports ==");
    println!("   each NIC offers ~10 Gb/s (1514 B / 1.2 µs); links Gen2 x4");
    let out = run_topology_experiment(&TopologyExperiment {
        frames: if opts.full { 2048 } else { 256 },
        ..TopologyExperiment::default()
    });
    let mut rows = Vec::new();
    for (label, arm) in [("shared uplink", &out.shared), ("split root ports", &out.split)] {
        assert!(arm.completed, "topology arm must complete: {arm:?}");
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", arm.per_stream_gbps[0]),
            format!("{:.3}", arm.per_stream_gbps[1]),
            format!("{:.3}", arm.aggregate_gbps()),
            format!("{:.0}", arm.p99_dma_read_ns[0]),
            format!("{:.0}", arm.p99_dma_read_ns[1]),
        ]);
    }
    println!(
        "{}",
        table::render(
            &["placement", "nic0 Gb/s", "nic1 Gb/s", "aggregate", "nic0 p99 (ns)", "nic1 p99 (ns)"],
            &rows
        )
    );
}

/// The interrupt-delivery tables: the same NIC transmit load serviced
/// over a single legacy INTx line vs. per-queue MSI-X vectors (doorbell
/// memory writes through the fabric), then the queue-count and
/// per-vector moderation sweeps.
fn msix(opts: &Opts) {
    let frames = if opts.full { 2048 } else { 256 };

    println!("\n== MSI-X: interrupt delivery — legacy INTx vs per-queue vectors ==");
    println!("   same offered load; INTx = single queue on the shared line,");
    println!("   MSI-X = per-queue vectors as posted memory writes; links Gen2 x4");
    let mode_configs: Vec<MsixTxExperiment> = vec![
        MsixTxExperiment { frames, use_msix: false, queues: 1, ..MsixTxExperiment::default() },
        MsixTxExperiment { frames, queues: 1, ..MsixTxExperiment::default() },
        MsixTxExperiment { frames, queues: 4, ..MsixTxExperiment::default() },
    ];
    let labels = ["INTx, 1 queue", "MSI-X, 1 queue", "MSI-X, 4 queues"];
    let outcomes = run_sweep(&mode_configs, opts.jobs, run_msix_tx_experiment);
    let mut rows = Vec::new();
    for (label, out) in labels.iter().zip(&outcomes) {
        assert!(out.completed, "msix mode run must complete: {label}");
        rows.push(vec![
            (*label).to_string(),
            format!("{:.3}", out.throughput_gbps),
            format!("{:.0}", out.frames_per_sec),
            out.irqs.to_string(),
            format!("{:.2}", out.irqs as f64 / f64::from(frames)),
        ]);
    }
    println!("{}", table::render(&["mode", "Gb/s", "frames/s", "irqs", "irqs/frame"], &rows));

    println!("\n== MSI-X: queue-count sweep (per-queue vectors, no moderation) ==");
    let queue_configs: Vec<MsixTxExperiment> = [1u32, 2, 4]
        .iter()
        .map(|&queues| MsixTxExperiment { frames, queues, ..MsixTxExperiment::default() })
        .collect();
    let outcomes = run_sweep(&queue_configs, opts.jobs, run_msix_tx_experiment);
    let mut rows = Vec::new();
    for (config, out) in queue_configs.iter().zip(&outcomes) {
        assert!(out.completed, "msix queue sweep must complete: {config:?}");
        rows.push(vec![
            config.queues.to_string(),
            format!("{:.3}", out.throughput_gbps),
            format!("{:.0}", out.frames_per_sec),
            out.irqs.to_string(),
        ]);
    }
    println!("{}", table::render(&["queues", "Gb/s", "frames/s", "irqs"], &rows));

    println!("\n== MSI-X: per-vector moderation sweep (4 queues) ==");
    println!("   holdoff coalesces completions into one doorbell per timer expiry");
    let mod_configs: Vec<MsixTxExperiment> = [0u64, 10, 50]
        .iter()
        .map(|&usecs| MsixTxExperiment {
            frames,
            queues: 4,
            moderation: pcisim_kernel::tick::us(usecs),
            ..MsixTxExperiment::default()
        })
        .collect();
    let outcomes = run_sweep(&mod_configs, opts.jobs, run_msix_tx_experiment);
    let mut rows = Vec::new();
    for (&usecs, out) in [0u64, 10, 50].iter().zip(&outcomes) {
        assert!(out.completed, "msix moderation sweep must complete: {usecs} us");
        rows.push(vec![
            if usecs == 0 { "none".to_string() } else { format!("{usecs} us") },
            format!("{:.3}", out.throughput_gbps),
            out.irqs.to_string(),
            format!("{:.2}", out.irqs as f64 / f64::from(frames)),
            out.irqs_coalesced.to_string(),
        ]);
    }
    println!("{}", table::render(&["holdoff", "Gb/s", "irqs", "irqs/frame", "coalesced"], &rows));
}

/// The heavy-traffic poll-mode tables: the interrupt-driven receive
/// driver vs. the busy-poll driver on identical traffic, then the
/// million-flow offered-load ladder (warm-forked across `--jobs`), with
/// serial-vs-sharded identity and trace record→replay bit-identity
/// asserted on the middle rung.
fn pmd(opts: &Opts) {
    use std::sync::Arc;
    let frames: u32 = if opts.full { 4096 } else { 1024 };
    let base = PmdExperiment {
        traffic: Some(TrafficSpec::Generate(heavy_traffic(0xd04a_11ce, 1 << 20, frames, ns(1500)))),
        ..PmdExperiment::default()
    };

    println!("\n== PMD: interrupt-driven vs busy-poll receive on identical traffic ==");
    println!("   2^20 flows, heavy-tailed frame sizes, Poisson arrivals (mean gap 1.5 us);");
    println!("   poll mode never unmasks IMS — the NIC raises zero doorbells");
    let irq = run_irq_rx_experiment(&base);
    let poll = run_pmd_experiment(&base);
    assert!(irq.completed, "interrupt baseline must settle every frame: {irq:?}");
    assert!(poll.completed, "poll-mode run must settle every frame: {poll:?}");
    assert!(irq.irqs > 0, "the interrupt baseline takes a doorbell per writeback");
    assert_eq!(poll.irqs, 0, "poll mode must run with interrupts fully masked");
    let mut rows = Vec::new();
    for (label, out) in [("interrupt-driven", &irq), ("busy-poll (PMD)", &poll)] {
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", out.rx_gbps),
            out.rx_delivered.to_string(),
            out.rx_dropped.to_string(),
            out.irqs.to_string(),
            out.polls.to_string(),
            format!("{:.0}", out.frame_latency_p50_ns),
            format!("{:.0}", out.frame_latency_p99_ns),
        ]);
    }
    println!(
        "{}",
        table::render(
            &["mode", "rx Gb/s", "delivered", "dropped", "irqs", "polls", "p50 (ns)", "p99 (ns)"],
            &rows
        )
    );
    println!("   poll mode settled {} frames with 0 interrupts", poll.rx_delivered);

    println!("\n== PMD: offered-load ladder (busy-poll, warm-forked sweep) ==");
    println!("   same flow population and size tail, mean inter-arrival gap swept");
    let gaps = [ns(4000), ns(2500), ns(1500), ns(1000), ns(700)];
    let Some(TrafficSpec::Generate(base_cfg)) = base.traffic.clone() else { unreachable!() };
    let configs: Vec<PmdExperiment> = offered_load_ladder(base_cfg, &gaps)
        .into_iter()
        .map(|t| PmdExperiment { traffic: Some(TrafficSpec::Generate(t)), ..base.clone() })
        .collect();
    let outcomes = run_pmd_sweep_warm(&configs, opts.jobs);
    let mut rows = Vec::new();
    for (&gap, out) in gaps.iter().zip(&outcomes) {
        assert!(out.completed, "ladder rung must settle: gap {gap}");
        let total = out.rx_delivered + out.rx_dropped;
        rows.push(vec![
            format!("{}", gap / 1000),
            format!("{:.3}", out.rx_gbps),
            out.rx_delivered.to_string(),
            format!("{:.1}%", 100.0 * out.rx_dropped as f64 / total as f64),
            out.polls.to_string(),
            format!("{:.0}", out.frame_latency_p50_ns),
            format!("{:.0}", out.frame_latency_p99_ns),
        ]);
    }
    println!(
        "{}",
        table::render(
            &["mean gap (ns)", "rx Gb/s", "delivered", "dropped", "polls", "p50 (ns)", "p99 (ns)"],
            &rows
        )
    );

    println!("\n== PMD: identity checks on the middle rung ==");
    let mid = &configs[gaps.len() / 2];
    let serial = run_pmd_sharded(mid, 1);
    let sharded = run_pmd_sharded(mid, 2);
    assert_eq!(serial, sharded, "sharded pmd must reproduce the serial run bit-for-bit");
    println!(
        "   serial == 2-shard: quiesce tick {}, stats fnv {:#018x}",
        serial.quiesce_tick, serial.stats_fnv
    );
    let Some(TrafficSpec::Generate(mid_cfg)) = &mid.traffic else { unreachable!() };
    let trace = record_trace(mid_cfg);
    let live = run_pmd_experiment(mid);
    let replayed = run_pmd_experiment(&PmdExperiment {
        traffic: Some(TrafficSpec::Replay(Arc::new(trace.clone()))),
        ..mid.clone()
    });
    assert_eq!(live, replayed, "trace replay must reproduce the live generator bit-for-bit");
    println!(
        "   record -> replay: {} bytes for {frames} frames, bit-identical (stats fnv {:#018x})",
        trace.len(),
        live.stats_fnv
    );
}

/// The CXL.mem memory-expansion tables: local-DRAM vs CXL-attached
/// load/store latency and bandwidth (open-loop window sweep), the
/// behind-switch placement penalty measured with a fully dependent
/// pointer chase, and the 2–4-way HDM-interleaving aggregate, with
/// serial-vs-sharded bit-identity asserted on the interleaved tree.
fn cxl(opts: &Opts) {
    let requests: u32 = if opts.full { 1024 } else { 256 };

    println!("\n== CXL: local DRAM vs CXL-attached expander — open-loop load stream ==");
    println!("   64 B loads every 100 ns, in-flight window swept; expander on Gen3 x8");
    const WINDOWS: [usize; 4] = [1, 2, 4, 8];
    let arms = [("local DRAM", CxlPlacement::LocalDram), ("CXL direct", CxlPlacement::Direct)];
    let configs: Vec<CxlExperiment> = arms
        .iter()
        .flat_map(|&(_, placement)| {
            WINDOWS.iter().map(move |&outstanding| CxlExperiment {
                placement,
                requests,
                outstanding,
                ..CxlExperiment::default()
            })
        })
        .collect();
    let outcomes = run_sweep(&configs, opts.jobs, run_cxl_experiment);
    let mut rows = Vec::new();
    for (ai, &(label, _)) in arms.iter().enumerate() {
        for (wi, &window) in WINDOWS.iter().enumerate() {
            let out = &outcomes[ai * WINDOWS.len() + wi];
            assert!(out.completed, "cxl curve point must complete: {out:?}");
            rows.push(vec![
                label.to_string(),
                window.to_string(),
                format!("{:.0}", out.mean_ns),
                format!("{:.0}", out.max_ns),
                format!("{:.3}", out.gbps),
                out.stalls.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table::render(&["target", "window", "mean (ns)", "max (ns)", "Gb/s", "stalls"], &rows)
    );

    println!("\n== CXL: placement penalty — fully dependent pointer chase ==");
    println!("   every load's address comes from the previous completion's data;");
    println!("   the chase rate is the raw round-trip, no overlap to hide it");
    let chase = |placement| CxlExperiment {
        placement,
        mode: CxlHostMode::PointerChase,
        requests,
        chain_blocks: 128,
        ..CxlExperiment::default()
    };
    let chase_configs = vec![
        chase(CxlPlacement::LocalDram),
        chase(CxlPlacement::Direct),
        chase(CxlPlacement::BehindSwitch),
    ];
    let chase_labels = ["local DRAM", "CXL direct", "CXL behind switch"];
    let chase_outcomes = run_sweep(&chase_configs, opts.jobs, run_cxl_experiment);
    for out in &chase_outcomes {
        assert!(out.completed, "cxl chase arm must complete: {out:?}");
    }
    assert!(
        chase_outcomes[1].mean_ns > chase_outcomes[0].mean_ns,
        "expander access must cost more than local DRAM"
    );
    assert!(
        chase_outcomes[2].mean_ns > chase_outcomes[1].mean_ns,
        "the switch hop must add latency"
    );
    let local_mean = chase_outcomes[0].mean_ns;
    let mut rows = Vec::new();
    for (label, out) in chase_labels.iter().zip(&chase_outcomes) {
        rows.push(vec![
            (*label).to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{:.0}", out.min_ns),
            format!("{:.0}", out.max_ns),
            format!("{:+.0}", out.mean_ns - local_mean),
        ]);
    }
    println!(
        "{}",
        table::render(&["placement", "mean (ns)", "min (ns)", "max (ns)", "vs local"], &rows)
    );

    println!("\n== CXL: HDM interleaving — one open-loop stream per expander ==");
    println!("   block-granule windows, one root port per expander; aggregate = sum of streams");
    let ways: [usize; 4] = [1, 2, 3, 4];
    let ileave_configs: Vec<CxlExperiment> = ways
        .iter()
        .map(|&n| CxlExperiment {
            placement: if n == 1 { CxlPlacement::Direct } else { CxlPlacement::Interleaved(n) },
            requests,
            ..CxlExperiment::default()
        })
        .collect();
    let ileave_outcomes = run_sweep(&ileave_configs, opts.jobs, run_cxl_experiment);
    let base = ileave_outcomes[0].gbps;
    let mut rows = Vec::new();
    for (&n, out) in ways.iter().zip(&ileave_outcomes) {
        assert!(out.completed, "cxl interleave point must complete: {out:?}");
        rows.push(vec![
            format!("{n}-way"),
            out.completed_accesses.to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{:.3}", out.gbps),
            format!("{:.2}x", out.gbps / base),
        ]);
    }
    println!(
        "{}",
        table::render(
            &["interleave", "accesses", "mean (ns)", "aggregate Gb/s", "vs 1-way"],
            &rows
        )
    );

    println!("\n== CXL: identity check on the 2-way interleaved tree ==");
    let mid = &ileave_configs[1];
    let serial = run_cxl_sharded(mid, 1);
    let sharded = run_cxl_sharded(mid, 2);
    assert_eq!(serial, sharded, "sharded cxl must reproduce the serial run bit-for-bit");
    println!(
        "   serial == 2-shard: quiesce tick {}, stats fnv {:#018x}",
        serial.quiesce_tick, serial.stats_fnv
    );
}

/// The virtio-over-PCIe tables: virtio-blk vs the IDE `dd` baseline on
/// per-request latency, virtio-net transmit vs the e1000e NIC on payload
/// throughput, and a queue-depth sweep of the blk virtqueue, with
/// serial-vs-sharded bit-identity asserted on the mixed-fleet tree.
fn virtio(opts: &Opts) {
    let requests: u32 = if opts.full { 512 } else { 128 };

    println!("\n== Virtio: virtio-blk vs IDE — per-request completion latency ==");
    println!("   4 KB reads, one request in flight; identical OS submit overhead");
    let blk_arm = |arm| VirtioExperiment { arm, requests, ..VirtioExperiment::default() };
    let lat_configs = vec![blk_arm(VirtioArm::IdeBaseline), blk_arm(VirtioArm::Blk)];
    let lat_labels = ["IDE (PIO regs + INTx)", "virtio-blk (virtqueue)"];
    let lat_outcomes = run_sweep(&lat_configs, opts.jobs, run_virtio_experiment);
    for out in &lat_outcomes {
        assert!(out.completed, "latency arm must complete: {out:?}");
    }
    assert!(
        lat_outcomes[1].mean_ns < lat_outcomes[0].mean_ns,
        "the paravirtual queue must beat the IDE register dance"
    );
    let ide_mean = lat_outcomes[0].mean_ns;
    let mut rows = Vec::new();
    for (label, out) in lat_labels.iter().zip(&lat_outcomes) {
        rows.push(vec![
            (*label).to_string(),
            out.requests.to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{:.0}", out.max_ns),
            format!("{:.2}x", ide_mean / out.mean_ns),
        ]);
    }
    println!(
        "{}",
        table::render(&["driver", "requests", "mean (ns)", "max (ns)", "speedup"], &rows)
    );

    println!("\n== Virtio: virtio-net TX vs e1000e — 1514 B frames, payload Gb/s ==");
    println!("   both on a Gen2 x4 link with a 10 Gb/s wire; virtio at QD8 over MSI-X");
    let nic = run_nic_tx_experiment(&NicTxExperiment {
        width: LinkWidth::X4,
        frames: requests,
        ..NicTxExperiment::default()
    });
    assert!(nic.completed, "e1000e baseline must complete");
    let vnet = |use_msix| VirtioExperiment {
        arm: VirtioArm::NetTx,
        requests,
        queue_depth: 8,
        request_bytes: 1514,
        use_msix,
        ..VirtioExperiment::default()
    };
    let net_configs = vec![vnet(false), vnet(true)];
    let net_outcomes = run_sweep(&net_configs, opts.jobs, run_virtio_experiment);
    for out in &net_outcomes {
        assert!(out.completed, "net arm must complete: {out:?}");
    }
    let mut rows = vec![vec![
        "e1000e (tail doorbell)".to_string(),
        requests.to_string(),
        format!("{:.3}", nic.throughput_gbps),
        "-".to_string(),
    ]];
    for (label, out) in
        ["virtio-net (INTx)", "virtio-net (MSI-X)"].iter().zip(&net_outcomes)
    {
        rows.push(vec![
            (*label).to_string(),
            out.requests.to_string(),
            format!("{:.3}", out.gbps),
            out.irqs.to_string(),
        ]);
    }
    println!("{}", table::render(&["driver", "frames", "Gb/s", "irqs"], &rows));

    println!("\n== Virtio: blk queue-depth sweep — 4 KB reads, one virtqueue ==");
    const DEPTHS: [u32; 5] = [1, 2, 4, 8, 16];
    let qd_configs: Vec<VirtioExperiment> = DEPTHS
        .iter()
        .map(|&queue_depth| VirtioExperiment {
            queue_depth,
            requests,
            ..VirtioExperiment::default()
        })
        .collect();
    let qd_outcomes = run_sweep(&qd_configs, opts.jobs, run_virtio_experiment);
    let base = qd_outcomes[0].gbps;
    let mut rows = Vec::new();
    for (&qd, out) in DEPTHS.iter().zip(&qd_outcomes) {
        assert!(out.completed, "queue-depth point must complete: {out:?}");
        rows.push(vec![
            qd.to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{:.3}", out.gbps),
            out.irqs.to_string(),
            format!("{:.2}x", out.gbps / base),
        ]);
    }
    println!(
        "{}",
        table::render(&["depth", "mean (ns)", "Gb/s", "irqs", "vs QD1"], &rows)
    );

    println!("\n== Virtio: identity check on the mixed fleet (blk + net + IDE) ==");
    let mixed = VirtioExperiment {
        arm: VirtioArm::Mixed,
        requests: 32,
        queue_depth: 2,
        ..VirtioExperiment::default()
    };
    let serial = run_virtio_sharded(&mixed, 1);
    let sharded = run_virtio_sharded(&mixed, 2);
    assert!(serial.completed, "mixed fleet must complete: {serial:?}");
    assert_eq!(serial, sharded, "sharded virtio must reproduce the serial run bit-for-bit");
    println!(
        "   serial == 2-shard: quiesce tick {}, stats fnv {:#018x}",
        serial.quiesce_tick, serial.stats_fnv
    );
}

/// The shard-scaling tables: the same multi-endpoint `dd` run partitioned
/// across 1, 2, … worker shards with conservative link-lookahead sync.
/// Every shard count must reproduce the serial quiesce tick and stats FNV
/// bit-for-bit; what varies is only the aggregate event rate.
fn shard_scaling(opts: &Opts) {
    use pcisim_system::topology::Topology;
    println!("\n== Shard scaling: conservative link-lookahead parallel runs ==");
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "   host has {cpus} core{}: parallel speedup needs shards <= cores; \
         identity holds regardless",
        if cpus == 1 { "" } else { "s" }
    );
    let mut ladder: Vec<usize> = Vec::new();
    let mut n = 1;
    while n < opts.shards.max(1) {
        ladder.push(n);
        n *= 2;
    }
    ladder.push(opts.shards.max(1));
    // The 256-bus architectural limit caps a PCI segment below 256
    // endpoints (every link consumes a bus number): fanout(3,8,8) — 192
    // disks on 247 buses — is the widest 3-level tree the spec admits.
    let arms: Vec<(&str, Topology, u64)> = if opts.full {
        vec![
            ("cascaded(3)", Topology::cascaded(3), 16 * MB),
            ("fanout(3,8,8), 192 disks", Topology::fanout(3, 8, 8), 256 * 1024),
        ]
    } else {
        vec![
            ("cascaded(3)", Topology::cascaded(3), MB),
            ("fanout(2,4,4), 32 disks", Topology::fanout(2, 4, 4), 256 * 1024),
        ]
    };
    for (label, topo, block) in arms {
        println!("\n   {label}, one {}KB dd stream per disk:", block / 1024);
        let mut rows = Vec::new();
        let mut sync_tables = Vec::new();
        let mut base: Option<ShardScalingOutcome> = None;
        for &shards in &ladder {
            let out = run_shard_scaling(topo.clone(), shards, block);
            if let Some(b) = &base {
                assert_eq!(out.quiesce_tick, b.quiesce_tick, "{label}: quiesce tick must match");
                assert_eq!(out.stats_fnv, b.stats_fnv, "{label}: stats FNV must match");
            }
            if out.shards > 1 {
                sync_tables.push(render_sync_stats(&out));
            }
            rows.push(vec![
                out.shards.to_string(),
                out.cut_links.to_string(),
                out.events.to_string(),
                format!("{:.1}", out.wall_secs * 1e3),
                format!("{:.0}", out.events_per_sec()),
                base.as_ref().map_or("1.00x".to_string(), |b| {
                    format!("{:.2}x", out.events_per_sec() / b.events_per_sec())
                }),
            ]);
            if base.is_none() {
                base = Some(out);
            }
        }
        let b = base.expect("ladder is non-empty");
        println!(
            "   bit-identical at every shard count: quiesce tick {}, stats fnv {:#018x}",
            b.quiesce_tick, b.stats_fnv
        );
        println!(
            "{}",
            table::render(
                &["shards", "cut links", "events", "wall ms", "events/s", "vs serial"],
                &rows
            )
        );
        for t in sync_tables {
            println!("{t}");
        }
    }
}

/// One ladder rung's `ShardedSimulator::sync_stats`: what the window
/// protocol cost, overall and per shard thread.
fn render_sync_stats(out: &ShardScalingOutcome) -> String {
    let sync = &out.sync;
    let rows: Vec<Vec<String>> = sync
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                i.to_string(),
                s.idle_windows.to_string(),
                s.messages_sent.to_string(),
                s.spin_waits.to_string(),
                format!("{:.1}", s.spin_ns as f64 / 1e6),
                s.park_waits.to_string(),
                format!("{:.1}", s.park_ns as f64 / 1e6),
            ]
        })
        .collect();
    format!(
        "   sync at {} shards: {} windows, {:.1} events/window (max {}), {} mailbox messages\n{}",
        out.shards,
        sync.windows,
        sync.mean_window_events(),
        sync.max_window_events,
        sync.mailbox_messages(),
        table::render(
            &[
                "shard",
                "idle windows",
                "msgs sent",
                "spin waits",
                "spin ms",
                "park waits",
                "park ms"
            ],
            &rows
        )
    )
}

/// Re-runs the Table II 150 ns point with tracing, dumps Perfetto JSON to
/// `path` and prints the per-stage latency attribution (the paper's "where
/// does the access latency go" question, answered from the trace).
fn trace_dump(path: &str) {
    println!("\n== Traced run: Table II @ rc=150 ns, full event trace ==");
    let out = run_mmio_experiment(&MmioExperiment {
        rc_latency: ns(150),
        reads: 8,
        cpu_overhead: 0,
        trace: true,
    });
    assert!(out.completed, "traced run must complete");
    let log = out.trace.expect("trace requested");
    std::fs::write(path, log.to_perfetto_json()).expect("write trace file");
    println!("Perfetto trace written to {path} (open in ui.perfetto.dev).\n");
    println!("{}", log.attribution().render());
}

/// Demonstrates file-backed checkpoint/restore: warms up the validation
/// `dd` system, saves it to `path`, rebuilds the tree from the warm seed
/// (no enumeration, no driver probe), restores from the file and resumes
/// to completion — asserting the restored run is bit-identical to an
/// uninterrupted cold run.
fn checkpoint_demo(path: &str) {
    use pcisim_kernel::sim::RunOutcome;
    use pcisim_kernel::tick::TICKS_PER_SEC;
    use pcisim_system::builder::{build_system, build_system_warm, SystemConfig};
    use pcisim_system::workload::dd::DdConfig;

    println!("\n== Checkpoint demo: warm up, save, restore from file, resume ==");
    let block = MB;

    // Cold reference: one uninterrupted run.
    let mut cold = build_system(SystemConfig::validation());
    let cold_report = cold.attach_dd(DdConfig { block_bytes: block, ..DdConfig::default() });
    assert_eq!(cold.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);

    // Warm up a second system to WARMUP_TICK and save it to disk.
    let mut warm = build_system(SystemConfig::validation());
    let seed = warm.warm_seed();
    let _ = warm.attach_dd(DdConfig { block_bytes: block, ..DdConfig::default() });
    assert_eq!(warm.sim.run(WARMUP_TICK, u64::MAX), RunOutcome::TimeLimit);
    let bytes = warm.checkpoint_to(path).expect("checkpoint written");

    // Rebuild from the seed, restore the file, resume.
    let mut restored = build_system_warm(SystemConfig::validation(), &seed);
    let report = restored.attach_dd(DdConfig { block_bytes: block, ..DdConfig::default() });
    restored.restore_from(path).expect("checkpoint restores");
    assert_eq!(restored.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);

    let (c, r) = (cold_report.borrow().clone(), report.borrow().clone());
    assert_eq!(cold.sim.now(), restored.sim.now(), "restored run must match the cold run");
    assert_eq!(c.throughput_gbps().to_bits(), r.throughput_gbps().to_bits());
    println!("checkpoint: {bytes} bytes (taken at tick {WARMUP_TICK}) -> {path}");
    println!("cold run:     {:.3} Gb/s, done at tick {}", c.throughput_gbps(), cold.sim.now());
    println!(
        "restored run: {:.3} Gb/s, done at tick {} (bit-identical)",
        r.throughput_gbps(),
        restored.sim.now()
    );
}

/// Number of microbenchmark samples; `PCISIM_BENCH_SAMPLES` overrides the
/// default of 3 (the same knob the criterion shim honours).
fn bench_samples() -> u32 {
    std::env::var("PCISIM_BENCH_SAMPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(3)
}

/// Measures the microbenchmark scenarios plus the warm-start cold/warm
/// comparison and writes the speed report.
fn bench_json(path: &str, sweep_wall_ms: &[(String, u64)]) {
    println!("\n== simulator_speed microbenchmarks (for {path}) ==");
    let micro = benchjson::run_micro_benchmarks(bench_samples());
    for m in &micro {
        println!(
            "{:>16}: {:>12.0} ops/s  {:>12.0} events/s  ({:.2} ms)",
            m.name, m.ops_per_sec, m.events_per_sec, m.wall_ms
        );
    }
    let warm = benchjson::run_warm_start_benchmark(bench_samples());
    println!(
        "{:>16}: cold {:>8.1} ms vs warm {:>8.1} ms over {} configs ({:.2}x; warm arm \
         skips {} setup passes + {} warmup events/point, still runs each workload tail)",
        "warm_start",
        warm.cold_ms,
        warm.warm_ms,
        warm.configs,
        warm.speedup(),
        warm.cold_setups - warm.warm_setups,
        warm.warm_events_skipped,
    );
    std::fs::write(path, benchjson::render_json(&micro, sweep_wall_ms, Some(&warm)))
        .expect("write bench json");
    println!("speed report written to {path}");
}

/// CI smoke gate: re-measures the scenarios and compares against the
/// `current` section of the checked-in JSON. Exits non-zero on a >30%
/// ops/sec regression, on any scenario dipping under the absolute
/// events/sec floor, or on a `null`/non-finite baseline entry (a `null`
/// means a broken measurement was checked in — regenerate the file with
/// `--bench-json` instead of gating against garbage).
fn bench_check(path: &str) -> i32 {
    const MAX_REGRESSION: f64 = 0.30;
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench baseline {path}: {e}"));
    let doc = benchjson::parse(&text).unwrap_or_else(|e| panic!("bad JSON in {path}: {e}"));
    let floor = match doc.path(&["floors", "events_per_sec"]) {
        // Baselines written before the floor existed fall back to the
        // compiled-in value.
        None => benchjson::EVENTS_PER_SEC_FLOOR,
        Some(v) => v.as_f64().filter(|f| f.is_finite() && *f > 0.0).unwrap_or_else(|| {
            panic!("floors.events_per_sec in {path} is {v:?}, not a positive finite number")
        }),
    };
    let micro = benchjson::run_micro_benchmarks(bench_samples());
    let mut failed = false;
    println!("== bench smoke: measured vs baseline ({path}), events/s floor {floor:.0} ==");
    for m in &micro {
        let mut verdict = "ok";
        if m.events_per_sec < floor {
            failed = true;
            verdict = "UNDER FLOOR";
        }
        match doc.path(&["current", "ops_per_sec", m.name]) {
            None => {
                println!(
                    "{:>22}: {:>12.0} ops/s  {:>12.0} events/s — no baseline entry {verdict}",
                    m.name, m.ops_per_sec, m.events_per_sec
                );
            }
            Some(entry) => {
                let base =
                    entry.as_f64().filter(|b| b.is_finite() && *b > 0.0).unwrap_or_else(|| {
                        panic!(
                            "baseline ops_per_sec for {} in {path} is {entry:?} — a null or \
                             non-finite baseline means a broken measurement was checked in; \
                             regenerate with --bench-json",
                            m.name
                        )
                    });
                let ratio = m.ops_per_sec / base;
                if ratio < 1.0 - MAX_REGRESSION {
                    failed = true;
                    verdict = "REGRESSION";
                }
                println!(
                    "{:>22}: {:>12.0} ops/s vs baseline {:>12.0} ({:>5.2}x) {verdict}",
                    m.name, m.ops_per_sec, base, ratio
                );
            }
        }
    }
    if failed {
        eprintln!(
            "bench smoke FAILED: ops/sec regressed more than {:.0}% or events/sec \
             fell under the {floor:.0} floor",
            MAX_REGRESSION * 100.0
        );
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let value_of = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        })
    };
    let jobs = value_of("--jobs")
        .map(|v| v.parse::<usize>().unwrap_or_else(|_| panic!("--jobs needs a number, got {v}")))
        .unwrap_or_else(default_jobs);
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "repro_trace.json".into()));
    let bench_json_path = value_of("--bench-json");
    let checkpoint_path = value_of("--checkpoint");
    if let Some(path) = value_of("--bench-check") {
        std::process::exit(bench_check(&path));
    }
    let warm_start = args.iter().any(|a| a == "--warm-start");
    let shards = value_of("--shards")
        .map(|v| v.parse::<usize>().unwrap_or_else(|_| panic!("--shards needs a number, got {v}")))
        .unwrap_or(4);
    let opts = Opts { full, jobs, warm_start, shards };
    const VALUE_FLAGS: [&str; 6] =
        ["--trace", "--jobs", "--shards", "--bench-json", "--bench-check", "--checkpoint"];
    let mut skip_next = false;
    let picked: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if VALUE_FLAGS.contains(a) {
                skip_next = true;
                return false;
            }
            *a != "--full" && *a != "--warm-start"
        })
        .collect();
    let run_all = picked.is_empty() || picked.contains(&"all");

    println!(
        "pcisim repro — {} mode (block sizes {}), {jobs} sweep worker{}{}",
        if full { "full" } else { "quick" },
        if full {
            "64–512 MB as in the paper"
        } else {
            "scaled down 16x; pass --full for the paper's sizes"
        },
        if jobs == 1 { "" } else { "s" },
        if warm_start { ", warm-started dd/fault sweeps" } else { "" },
    );
    let mut sweep_wall_ms: Vec<(String, u64)> = Vec::new();
    let mut timed = |name: &str, f: &dyn Fn(&Opts)| {
        let start = Instant::now();
        f(&opts);
        sweep_wall_ms.push((name.to_string(), start.elapsed().as_millis() as u64));
    };
    if run_all || picked.contains(&"sector") {
        timed("sector", &sector);
    }
    if run_all || picked.contains(&"fig9a") {
        timed("fig9a", &fig9a);
    }
    if run_all || picked.contains(&"fig9b") {
        timed("fig9b", &fig9b);
    }
    if run_all || picked.contains(&"fig9c") {
        timed("fig9c", &fig9c);
    }
    if run_all || picked.contains(&"fig9d") {
        timed("fig9d", &fig9d);
    }
    if run_all || picked.contains(&"table2") {
        timed("table2", &table2);
    }
    if run_all || picked.contains(&"ext") {
        timed("ext", &ext);
    }
    if run_all || picked.contains(&"faults") || picked.contains(&"--faults") {
        timed("faults", &faults);
    }
    if run_all || picked.contains(&"topology") || picked.contains(&"--topology") {
        timed("topology", &topology);
    }
    if run_all || picked.contains(&"msix") || picked.contains(&"--msix") {
        timed("msix", &msix);
    }
    if run_all || picked.contains(&"pmd") || picked.contains(&"--pmd") {
        timed("pmd", &pmd);
    }
    if run_all || picked.contains(&"shard") || picked.contains(&"--shard") {
        timed("shard", &shard_scaling);
    }
    if run_all || picked.contains(&"cxl") || picked.contains(&"--cxl") {
        timed("cxl", &cxl);
    }
    if run_all || picked.contains(&"virtio") || picked.contains(&"--virtio") {
        timed("virtio", &virtio);
    }
    if let Some(path) = trace_path {
        trace_dump(&path);
    }
    if let Some(path) = checkpoint_path {
        checkpoint_demo(&path);
    }
    if let Some(path) = bench_json_path {
        bench_json(&path, &sweep_wall_ms);
    }
}
