//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--full] [--jobs N] [--trace PATH]
//!       [--checkpoint PATH] [--bench-json PATH]
//!       [fig9a] [fig9b] [fig9c] [fig9d] [table2] [sector] [ext] [faults] [topology]
//!       [msix] [pmd] [cxl] [virtio] [all]
//! ```
//!
//! `ext` runs the extension experiments beyond the paper's evaluation:
//! the legacy-crossbar baseline, dual-disk fabric contention, the NIC
//! transmit and receive sweeps, and the `dd` ablation table (posted
//! writes, ACK per TLP, cut-through links, credit flow control at x8).
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
//! heavy-tailed traffic, then an offered-load ladder. Along
//! the way it asserts that replaying the recorded binary trace
//! reproduces the live generator bit-for-bit.
//!
//! `cxl` (alias `--cxl`) runs the CXL.mem memory-expansion experiment:
//! host load/store streams against local DRAM vs a CXL-attached expander
//! (open-loop window sweep), the placement penalty of putting the
//! expander behind a switch (dependent pointer chase), and 2–4-way HDM
//! interleaving aggregate bandwidth.
//!
//! `virtio` (alias `--virtio`) runs the virtio-over-PCIe experiment:
//! virtio-blk against the IDE `dd` baseline on per-request latency,
//! virtio-net transmit against the e1000e NIC on payload throughput,
//! and a queue-depth sweep of the blk virtqueue.
//!
//! `--jobs N` fans the independent configurations of each Fig. 9 / Table II
//! sweep across N worker threads (default: all available cores). Every
//! configuration runs its own `Simulation`, and results are re-assembled in
//! input order, so the printed tables are bit-identical to `--jobs 1`.
//!
//! `--checkpoint PATH` demonstrates file-backed checkpoint/restore: it
//! runs the validation `dd` experiment to `WARMUP_TICK`, writes the
//! checkpoint to PATH, restores the file into a fresh build and runs to
//! completion, printing the cold-vs-restored comparison.
//!
//! `--trace PATH` additionally re-runs the Table II point with full event
//! tracing: a Chrome/Perfetto trace is written to PATH and a per-stage
//! latency attribution of the MMIO read is printed.
//!
//! `--bench-json PATH` measures the four full-system scenarios the repo
//! benchmark (`benchmark/`) does not cover and writes a machine-readable
//! speed record (ops/sec, events/sec, the wall-clock of each figure this
//! invocation ran, host metadata) to PATH; it exits non-zero when a
//! scenario's event rate is non-finite or under the 100 k events/s floor.
//!
//! By default block sizes are scaled down 16× (4–32 MB instead of the
//! paper's 64–512 MB) so the whole suite finishes in seconds; `--full`
//! runs the paper's sizes.

#![forbid(unsafe_code)]

use std::time::Instant;

use pcisim_bench::{benchjson, reference, table};
use pcisim_kernel::tick::ns;
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim_system::prelude::*;

const MB: u64 = 1024 * 1024;

struct Opts {
    full: bool,
    jobs: usize,
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

/// Prints one table row per `(label, outcome)` pair.
fn print_rows<L, O>(
    headers: &[&str],
    labels: impl IntoIterator<Item = L>,
    outcomes: &[O],
    row: impl Fn(L, &O) -> Vec<String>,
) {
    let rows: Vec<_> = labels.into_iter().zip(outcomes).map(|(l, o)| row(l, o)).collect();
    println!("{}", table::render(headers, &rows));
}

/// Runs every `DdExperiment` in `configs` across the sweep runner,
/// asserting completion, and returns outcomes in input order.
fn dd_sweep(opts: &Opts, label: &str, configs: &[DdExperiment]) -> Vec<DdOutcome> {
    let outcomes = run_sweep(configs, opts.jobs, run_cold);
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
            LANES.iter().map(move |&lanes| {
                DdExperiment { block_bytes: block, ..DdExperiment::default() }
                    .with_links(|link| LinkConfig { width: LinkWidth::new(lanes), ..link })
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

/// The two x8 sweeps of Fig. 9: one knob of `DdExperiment` swept with every
/// link at x8, timeouts printed beside the paper's.
fn x8_sweep(
    opts: &Opts,
    label: &str,
    knob: &str,
    paper_timeouts: &[(usize, f64)],
    with_knob: impl Fn(DdExperiment, usize) -> DdExperiment,
) {
    let base = DdExperiment {
        block_bytes: if opts.full { 256 * MB } else { 16 * MB },
        ..DdExperiment::default()
    }
    .with_links(|link| LinkConfig { width: LinkWidth::X8, ..link });
    let configs: Vec<DdExperiment> =
        paper_timeouts.iter().map(|&(value, _)| with_knob(base.clone(), value)).collect();
    let outcomes = dd_sweep(opts, label, &configs);
    print_rows(
        &[knob, "dd (Gb/s)", "timeout%", "replay%", "paper timeout%"],
        paper_timeouts,
        &outcomes,
        |&(value, paper), out| {
            vec![
                value.to_string(),
                format!("{:.3}", out.throughput_gbps),
                format!("{:.1}%", out.timeout_pct),
                format!("{:.1}%", out.replay_pct),
                format!("{paper:.0}%"),
            ]
        },
    );
}

fn fig9c(opts: &Opts) {
    println!("\n== Fig. 9(c): x8 links, replay buffer size sweep ==");
    println!("   paper timeout rates: rb1=0%, rb2=6%, rb3~27%, rb4~27%; rb3/4 throughput considerably lower");
    x8_sweep(opts, "fig9c", "replay buf", &reference::FIG9C_TIMEOUT_PCT, |exp, rb| {
        exp.with_links(|link| LinkConfig { replay_buffer_size: rb, ..link })
    });
}

fn fig9d(opts: &Opts) {
    println!("\n== Fig. 9(d): x8 links, switch/root port buffer sweep (replay buffer 4) ==");
    println!(
        "   paper: jump from 16→20, saturation at ~{:.2} Gb/s; timeouts 27%→20%→0%→0%",
        reference::SATURATION_GBPS
    );
    x8_sweep(opts, "fig9d", "port buf", &reference::FIG9D_TIMEOUT_PCT, |exp, pb| DdExperiment {
        port_buffers: pb,
        ..exp
    });
}

fn table2(opts: &Opts) {
    println!("\n== Table II: root-complex latency vs MMIO read access latency ==");
    let configs: Vec<MmioExperiment> = reference::TABLE_II
        .iter()
        .map(|&(lat, _)| MmioExperiment { rc_latency: ns(lat), ..MmioExperiment::default() })
        .collect();
    let outcomes = run_sweep(&configs, opts.jobs, run_cold);
    print_rows(
        &["rc latency (ns)", "measured (ns)", "paper (ns)", "delta"],
        &reference::TABLE_II,
        &outcomes,
        |&(lat, paper), out| {
            assert!(out.completed, "table2 run must complete");
            vec![
                lat.to_string(),
                format!("{:.0}", out.mean_ns),
                format!("{paper:.0}"),
                format!("{:+.0}", out.mean_ns - paper),
            ]
        },
    );
}

fn sector(_opts: &Opts) {
    println!("\n== §VI-B device-level: sector throughput over Gen 2 x1 ==");
    let out = run_cold(&SectorMicrobench { width: LinkWidth::X1, sectors: 256 });
    assert!(out.completed);
    println!(
        "measured {:.3} Gb/s   paper {:.3} Gb/s   (wire limit 64/84 x 4 = 3.048 Gb/s)",
        out.throughput_gbps,
        reference::SECTOR_LEVEL_GBPS
    );
}

fn ext(opts: &Opts) {
    use pcisim_kernel::tick::TICKS_PER_SEC;

    let block = if opts.full { 64 * MB } else { 4 * MB };
    // One `dd` block per disk of `sys`, run to completion: Gb/s per disk.
    let dd_gbps = |mut sys: TopologySystem| -> Vec<f64> {
        let dd = DdConfig { block_bytes: block, ..DdConfig::default() };
        let disks = sys.endpoints_of(EndpointKind::Disk);
        let reports: Vec<_> = disks.into_iter().map(|i| sys.attach_dd(i, dd.clone())).collect();
        sys.sim.run(TICKS_PER_SEC, u64::MAX);
        reports.iter().map(|r| r.borrow().throughput_gbps()).collect()
    };

    println!(
        "
== Extension: legacy crossbar baseline vs the PCI-Express model =="
    );
    let l = dd_gbps(build_legacy_system())[0];
    let p = dd_gbps(build_topology(Topology::validation()))[0];
    println!(
        "legacy IOBus (no PCIe model): {l:.3} Gb/s   PCIe Gen2 x1 reality: {p:.3} Gb/s   ({:.1}x overstated)",
        l / p
    );

    println!(
        "
== Extension: dual-disk contention on the shared root link =="
    );
    let mut rows = Vec::new();
    for width in [LinkWidth::X1, LinkWidth::X2, LinkWidth::X4] {
        let gbps = dd_gbps(build_topology(Topology::dual_disk(width)));
        let (a, b) = (gbps[0], gbps[1]);
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
    let outcomes = run_sweep(&nic_tx_configs, opts.jobs, run_cold);
    print_rows(&["width", "Gb/s", "frames/s"], &nic_tx_configs, &outcomes, |config, out| {
        assert!(out.completed);
        vec![
            config.width.to_string(),
            format!("{:.3}", out.throughput_gbps),
            format!("{:.0}", out.frames_per_sec),
        ]
    });

    println!("\n== Extension: NIC receive at ~5 Gb/s line rate (DMA writes) ==");
    let nic_rx_configs: Vec<NicRxExperiment> = [1u8, 2, 4, 8]
        .iter()
        .map(|&lanes| NicRxExperiment {
            width: LinkWidth::new(lanes),
            frames: if opts.full { 2048 } else { 256 },
            ..NicRxExperiment::default()
        })
        .collect();
    let outcomes = run_sweep(&nic_rx_configs, opts.jobs, run_cold);
    print_rows(
        &["width", "delivered Gb/s", "dropped"],
        &nic_rx_configs,
        &outcomes,
        |config, out| {
            assert!(out.completed);
            let total = out.frames_delivered + out.frames_dropped;
            vec![
                config.width.to_string(),
                format!("{:.3}", out.delivered_gbps),
                format!("{:.1}%", 100.0 * out.frames_dropped as f64 / total as f64),
            ]
        },
    );

    println!("\n== Extension: dd ablations over design choices the paper calls out ==");
    println!("   validation chain (x4 root / x1 device) unless the arm says x8 on every link");
    let base = DdExperiment { block_bytes: block, ..DdExperiment::default() };
    let links = |knob: fn(LinkConfig) -> LinkConfig| base.clone().with_links(knob);
    let x8 = links(|link| LinkConfig { width: LinkWidth::X8, ..link });
    let arms = [
        ("baseline", base.clone()),
        ("posted DMA writes", DdExperiment { posted_writes: true, ..base.clone() }),
        ("ACK per TLP", links(|link| LinkConfig { ack_immediate: true, ..link })),
        // The paper's links store and forward.
        ("cut-through links", links(|link| LinkConfig { cut_through: true, ..link })),
        ("x8, ACK/NAK only", x8.clone()),
        ("x8, credit FC (16)", x8.with_links(|link| LinkConfig { credit_fc: Some(16), ..link })),
    ];
    let configs: Vec<DdExperiment> = arms.iter().map(|(_, exp)| exp.clone()).collect();
    let outcomes = run_sweep(&configs, opts.jobs, run_cold);
    print_rows(&["arm", "dd (Gb/s)", "replay%", "timeout%"], arms, &outcomes, |(label, _), out| {
        assert!(out.completed, "ablation arm must complete: {label}");
        vec![
            label.to_string(),
            format!("{:.3}", out.throughput_gbps),
            format!("{:.1}%", out.replay_pct),
            format!("{:.1}%", out.timeout_pct),
        ]
    });
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
    let base = DdExperiment {
        block_bytes: if opts.full { 4 * MB } else { 256 * 1024 },
        ..DdExperiment::default()
    };
    let points = [
        ("Gen2 x4/x1", base.clone()),
        (
            "Gen2 x4 all",
            base.clone().with_links(|link| LinkConfig { width: LinkWidth::X4, ..link }),
        ),
        ("Gen3 x4/x1", base.with_links(|link| LinkConfig { generation: Generation::Gen3, ..link })),
    ];
    let (labels, configs): (Vec<&str>, Vec<DdExperiment>) = points
        .iter()
        .flat_map(|(label, exp)| error_rate_ladder(exp).into_iter().map(move |e| (*label, e)))
        .unzip();
    let outcomes = run_sweep(&configs, opts.jobs, run_cold);
    print_rows(
        &["links", "err rate", "dd (Gb/s)", "corrupt", "replays", "naks", "dev AER cor"],
        labels.iter().zip(&configs),
        &outcomes,
        |(label, config), out| {
            assert!(out.completed, "fault campaign point must converge: {out:?}");
            let interval = config.device_link.error_interval;
            vec![
                label.to_string(),
                if interval == 0 { "none".to_string() } else { format!("1/{interval}") },
                format!("{:.3}", out.throughput_gbps),
                out.corrupt_drops.to_string(),
                out.replays.to_string(),
                out.naks.to_string(),
                format!("{:#06x}", out.device_aer_cor),
            ]
        },
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
    print_rows(
        &["placement", "nic0 Gb/s", "nic1 Gb/s", "aggregate", "nic0 p99 (ns)", "nic1 p99 (ns)"],
        ["shared uplink", "split root ports"],
        &[out.shared, out.split],
        |label, arm| {
            assert!(arm.completed, "topology arm must complete: {arm:?}");
            vec![
                label.to_string(),
                format!("{:.3}", arm.per_stream_gbps[0]),
                format!("{:.3}", arm.per_stream_gbps[1]),
                format!("{:.3}", arm.aggregate_gbps()),
                format!("{:.0}", arm.p99_dma_read_ns[0]),
                format!("{:.0}", arm.p99_dma_read_ns[1]),
            ]
        },
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
    let outcomes = run_sweep(&mode_configs, opts.jobs, run_cold);
    print_rows(
        &["mode", "Gb/s", "frames/s", "irqs", "irqs/frame"],
        labels,
        &outcomes,
        |label, out| {
            assert!(out.completed, "msix mode run must complete: {label}");
            vec![
                label.to_string(),
                format!("{:.3}", out.throughput_gbps),
                format!("{:.0}", out.frames_per_sec),
                out.irqs.to_string(),
                format!("{:.2}", out.irqs as f64 / f64::from(frames)),
            ]
        },
    );

    println!("\n== MSI-X: queue-count sweep (per-queue vectors, no moderation) ==");
    let queue_configs: Vec<MsixTxExperiment> = [1u32, 2, 4]
        .iter()
        .map(|&queues| MsixTxExperiment { frames, queues, ..MsixTxExperiment::default() })
        .collect();
    let outcomes = run_sweep(&queue_configs, opts.jobs, run_cold);
    print_rows(
        &["queues", "Gb/s", "frames/s", "irqs"],
        &queue_configs,
        &outcomes,
        |config, out| {
            assert!(out.completed, "msix queue sweep must complete: {config:?}");
            vec![
                config.queues.to_string(),
                format!("{:.3}", out.throughput_gbps),
                format!("{:.0}", out.frames_per_sec),
                out.irqs.to_string(),
            ]
        },
    );

    println!("\n== MSI-X: per-vector moderation sweep (4 queues) ==");
    println!("   holdoff coalesces completions into one doorbell per timer expiry");
    const HOLDOFFS_US: [u64; 3] = [0, 10, 50];
    let mod_configs: Vec<MsixTxExperiment> = HOLDOFFS_US
        .iter()
        .map(|&usecs| MsixTxExperiment {
            frames,
            queues: 4,
            moderation: pcisim_kernel::tick::us(usecs),
            ..MsixTxExperiment::default()
        })
        .collect();
    let outcomes = run_sweep(&mod_configs, opts.jobs, run_cold);
    let headers = ["holdoff", "Gb/s", "irqs", "irqs/frame", "coalesced"];
    print_rows(&headers, HOLDOFFS_US, &outcomes, |usecs, out| {
        assert!(out.completed, "msix moderation sweep must complete: {usecs} us");
        vec![
            if usecs == 0 { "none".to_string() } else { format!("{usecs} us") },
            format!("{:.3}", out.throughput_gbps),
            out.irqs.to_string(),
            format!("{:.2}", out.irqs as f64 / f64::from(frames)),
            out.irqs_coalesced.to_string(),
        ]
    });
}

/// The heavy-traffic poll-mode tables: the interrupt-driven receive
/// driver vs. the busy-poll driver on identical traffic, then the
/// million-flow offered-load ladder (fanned across `--jobs`), with trace
/// record→replay bit-identity asserted on the middle rung.
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
    let irq = run_cold(&IrqRxBaseline(&base));
    let poll = run_cold(&base);
    assert!(irq.completed, "interrupt baseline must settle every frame: {irq:?}");
    assert!(poll.completed, "poll-mode run must settle every frame: {poll:?}");
    assert!(irq.irqs > 0, "the interrupt baseline takes a doorbell per writeback");
    assert_eq!(poll.irqs, 0, "poll mode must run with interrupts fully masked");
    print_rows(
        &["mode", "rx Gb/s", "delivered", "dropped", "irqs", "polls", "p50 (ns)", "p99 (ns)"],
        ["interrupt-driven", "busy-poll (PMD)"],
        &[&irq, &poll],
        |label, out| {
            vec![
                label.to_string(),
                format!("{:.3}", out.rx_gbps),
                out.rx_delivered.to_string(),
                out.rx_dropped.to_string(),
                out.irqs.to_string(),
                out.polls.to_string(),
                format!("{:.0}", out.frame_latency_p50_ns),
                format!("{:.0}", out.frame_latency_p99_ns),
            ]
        },
    );
    println!("   poll mode settled {} frames with 0 interrupts", poll.rx_delivered);

    println!("\n== PMD: offered-load ladder (busy-poll) ==");
    println!("   same flow population and size tail, mean inter-arrival gap swept");
    let gaps = [ns(4000), ns(2500), ns(1500), ns(1000), ns(700)];
    let Some(TrafficSpec::Generate(base_cfg)) = base.traffic.clone() else { unreachable!() };
    let configs: Vec<PmdExperiment> = offered_load_ladder(base_cfg, &gaps)
        .into_iter()
        .map(|t| PmdExperiment { traffic: Some(TrafficSpec::Generate(t)), ..base.clone() })
        .collect();
    let outcomes = run_sweep(&configs, opts.jobs, run_cold);
    print_rows(
        &["mean gap (ns)", "rx Gb/s", "delivered", "dropped", "polls", "p50 (ns)", "p99 (ns)"],
        gaps,
        &outcomes,
        |gap, out| {
            assert!(out.completed, "ladder rung must settle: gap {gap}");
            let total = out.rx_delivered + out.rx_dropped;
            vec![
                format!("{}", gap / 1000),
                format!("{:.3}", out.rx_gbps),
                out.rx_delivered.to_string(),
                format!("{:.1}%", 100.0 * out.rx_dropped as f64 / total as f64),
                out.polls.to_string(),
                format!("{:.0}", out.frame_latency_p50_ns),
                format!("{:.0}", out.frame_latency_p99_ns),
            ]
        },
    );

    println!("\n== PMD: identity checks on the middle rung ==");
    let mid = &configs[gaps.len() / 2];
    let live = run_cold(mid);
    let Some(TrafficSpec::Generate(mid_cfg)) = &mid.traffic else { unreachable!() };
    let trace = record_trace(mid_cfg);
    let replayed = run_cold(&PmdExperiment {
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
/// pointer chase, and the 2–4-way HDM-interleaving aggregate.
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
    let outcomes = run_sweep(&configs, opts.jobs, run_cold);
    let headers = ["target", "window", "mean (ns)", "max (ns)", "Gb/s", "stalls"];
    print_rows(&headers, &configs, &outcomes, |config, out| {
        assert!(out.completed, "cxl curve point must complete: {out:?}");
        let (label, _) = arms.iter().find(|(_, p)| *p == config.placement).expect("a swept arm");
        vec![
            label.to_string(),
            config.outstanding.to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{:.0}", out.max_ns),
            format!("{:.3}", out.gbps),
            out.stalls.to_string(),
        ]
    });

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
    let chase_outcomes = run_sweep(&chase_configs, opts.jobs, run_cold);
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
    let headers = ["placement", "mean (ns)", "min (ns)", "max (ns)", "vs local"];
    print_rows(&headers, chase_labels, &chase_outcomes, |label, out| {
        vec![
            label.to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{:.0}", out.min_ns),
            format!("{:.0}", out.max_ns),
            format!("{:+.0}", out.mean_ns - local_mean),
        ]
    });

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
    let ileave_outcomes = run_sweep(&ileave_configs, opts.jobs, run_cold);
    let base = ileave_outcomes[0].gbps;
    let headers = ["interleave", "accesses", "mean (ns)", "aggregate Gb/s", "vs 1-way"];
    print_rows(&headers, ways, &ileave_outcomes, |n, out| {
        assert!(out.completed, "cxl interleave point must complete: {out:?}");
        vec![
            format!("{n}-way"),
            out.completed_accesses.to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{:.3}", out.gbps),
            format!("{:.2}x", out.gbps / base),
        ]
    });
}

/// The virtio-over-PCIe tables: virtio-blk vs the IDE `dd` baseline on
/// per-request latency, virtio-net transmit vs the e1000e NIC on payload
/// throughput, and a queue-depth sweep of the blk virtqueue.
fn virtio(opts: &Opts) {
    let requests: u32 = if opts.full { 512 } else { 128 };

    println!("\n== Virtio: virtio-blk vs IDE — per-request completion latency ==");
    println!("   4 KB reads, one request in flight; identical OS submit overhead");
    let blk_arm = |arm| VirtioExperiment { arm, requests, ..VirtioExperiment::default() };
    let lat_configs = vec![blk_arm(VirtioArm::IdeBaseline), blk_arm(VirtioArm::Blk)];
    let lat_labels = ["IDE (PIO regs + INTx)", "virtio-blk (virtqueue)"];
    let lat_outcomes = run_sweep(&lat_configs, opts.jobs, run_cold);
    for out in &lat_outcomes {
        assert!(out.completed, "latency arm must complete: {out:?}");
    }
    assert!(
        lat_outcomes[1].mean_ns < lat_outcomes[0].mean_ns,
        "the paravirtual queue must beat the IDE register dance"
    );
    let ide_mean = lat_outcomes[0].mean_ns;
    let headers = ["driver", "requests", "mean (ns)", "max (ns)", "speedup"];
    print_rows(&headers, lat_labels, &lat_outcomes, |label, out| {
        vec![
            label.to_string(),
            out.requests.to_string(),
            format!("{:.0}", out.mean_ns),
            format!("{:.0}", out.max_ns),
            format!("{:.2}x", ide_mean / out.mean_ns),
        ]
    });

    println!("\n== Virtio: virtio-net TX vs e1000e — 1514 B frames, payload Gb/s ==");
    println!("   both on a Gen2 x4 link with a 10 Gb/s wire; virtio at QD8 over MSI-X");
    let nic = run_cold(&NicTxExperiment {
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
    let net_outcomes = run_sweep(&net_configs, opts.jobs, run_cold);
    for out in &net_outcomes {
        assert!(out.completed, "net arm must complete: {out:?}");
    }
    let mut rows = vec![vec![
        "e1000e (tail doorbell)".to_string(),
        requests.to_string(),
        format!("{:.3}", nic.throughput_gbps),
        "-".to_string(),
    ]];
    for (label, out) in ["virtio-net (INTx)", "virtio-net (MSI-X)"].iter().zip(&net_outcomes) {
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
    let qd_outcomes = run_sweep(&qd_configs, opts.jobs, run_cold);
    let base = qd_outcomes[0].gbps;
    print_rows(
        &["depth", "mean (ns)", "Gb/s", "irqs", "vs QD1"],
        DEPTHS,
        &qd_outcomes,
        |qd, out| {
            assert!(out.completed, "queue-depth point must complete: {out:?}");
            vec![
                qd.to_string(),
                format!("{:.0}", out.mean_ns),
                format!("{:.3}", out.gbps),
                out.irqs.to_string(),
                format!("{:.2}x", out.gbps / base),
            ]
        },
    );
}

/// Re-runs the Table II 150 ns point with tracing, dumps Perfetto JSON to
/// `path` and prints the per-stage latency attribution (the paper's "where
/// does the access latency go" question, answered from the trace).
fn trace_dump(path: &str) {
    println!("\n== Traced run: Table II @ rc=150 ns, full event trace ==");
    let (out, log) = run_traced(&MmioExperiment { rc_latency: ns(150), reads: 8, cpu_overhead: 0 });
    assert!(out.completed, "traced run must complete");
    std::fs::write(path, log.to_perfetto_json()).expect("write trace file");
    println!("Perfetto trace written to {path} (open in ui.perfetto.dev).\n");
    println!("{}", log.attribution().render());
}

/// Demonstrates file-backed checkpoint/restore: runs the validation `dd`
/// experiment to [`WARMUP_TICK`], saves the checkpoint to `path`, restores
/// the file's bytes into a fresh build and resumes to completion —
/// asserting the restored run is bit-identical to an uninterrupted cold
/// run.
fn checkpoint_demo(path: &str) {
    println!("\n== Checkpoint demo: run to the warmup tick, save, restore from file, resume ==");
    let exp = DdExperiment { block_bytes: MB, ..DdExperiment::default() };
    let cold = run_cold(&exp);

    std::fs::write(path, checkpoint_at(&exp, WARMUP_TICK)).expect("checkpoint written");
    let snapshot = std::fs::read(path).expect("checkpoint read back");
    let restored = run(&exp, Exec::Restore { snapshot: &snapshot });

    assert_eq!(cold.sim_time, restored.sim_time, "restored run must match the cold run");
    assert_eq!(cold.throughput_gbps.to_bits(), restored.throughput_gbps.to_bits());
    let bytes = snapshot.len();
    println!("checkpoint: {bytes} bytes (taken at tick {WARMUP_TICK}) -> {path}");
    println!("cold run:     {:.3} Gb/s, done at tick {}", cold.throughput_gbps, cold.sim_time);
    println!(
        "restored run: {:.3} Gb/s, done at tick {} (bit-identical)",
        restored.throughput_gbps, restored.sim_time
    );
}

/// Measures the scenarios the repo benchmark does not cover and writes the
/// speed record. Exits non-zero when a scenario's event rate is non-finite
/// or under the floor (a broken build or an unusable timer reading, not a
/// noisy host).
fn bench_json(path: &str, sweep_wall_ms: &[(String, u64)]) {
    const SAMPLES: u32 = 3;
    println!("\n== simulator_speed scenarios (for {path}) ==");
    let micro = benchjson::run_micro_benchmarks(SAMPLES);
    for m in &micro {
        println!(
            "{:>22}: {:>12.0} ops/s  {:>12.0} events/s  ({:.2} ms)",
            m.name, m.ops_per_sec, m.events_per_sec, m.wall_ms
        );
    }
    std::fs::write(path, benchjson::render_json(&micro, sweep_wall_ms)).expect("write bench json");
    println!("speed record written to {path}");
    let slow: Vec<&str> = micro.iter().filter(|m| !m.clears_floor()).map(|m| m.name).collect();
    if !slow.is_empty() {
        eprintln!(
            "bench FAILED: {slow:?} under the {:.0} events/s floor (or non-finite)",
            benchjson::EVENTS_PER_SEC_FLOOR
        );
        std::process::exit(1);
    }
}

/// A figure's name on the command line and the function printing it.
type Figure = (&'static str, fn(&Opts));

/// Every figure `repro` can regenerate, in the order `all` runs them.
const FIGURES: &[Figure] = &[
    ("sector", sector),
    ("fig9a", fig9a),
    ("fig9b", fig9b),
    ("fig9c", fig9c),
    ("fig9d", fig9d),
    ("table2", table2),
    ("ext", ext),
    ("faults", faults),
    ("topology", topology),
    ("msix", msix),
    ("pmd", pmd),
    ("cxl", cxl),
    ("virtio", virtio),
];

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
    let trace_path = value_of("--trace");
    let bench_json_path = value_of("--bench-json");
    let checkpoint_path = value_of("--checkpoint");
    let opts = Opts { full, jobs };
    const VALUE_FLAGS: [&str; 4] = ["--trace", "--jobs", "--bench-json", "--checkpoint"];
    let mut skip_next = false;
    // A figure is picked by name or, as CI spells some of them, `--name`.
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
            *a != "--full"
        })
        .map(|a| a.strip_prefix("--").unwrap_or(a))
        .collect();
    let known = |name: &str| name == "all" || FIGURES.iter().any(|(n, _)| *n == name);
    if let Some(unknown) = picked.iter().find(|name| !known(name)) {
        let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("repro: unknown figure {unknown:?}; valid names: {} all", names.join(" "));
        std::process::exit(2);
    }
    let run_all = picked.is_empty() || picked.contains(&"all");

    println!(
        "pcisim repro — {} mode (block sizes {}), {jobs} sweep worker{}",
        if full { "full" } else { "quick" },
        if full {
            "64–512 MB as in the paper"
        } else {
            "scaled down 16x; pass --full for the paper's sizes"
        },
        if jobs == 1 { "" } else { "s" },
    );
    let mut sweep_wall_ms: Vec<(String, u64)> = Vec::new();
    for &(name, figure) in FIGURES {
        if run_all || picked.contains(&name) {
            let start = Instant::now();
            figure(&opts);
            let wall_ms = start.elapsed().as_millis() as u64;
            println!("   [{name}: {wall_ms} ms of host time]");
            sweep_wall_ms.push((name.to_string(), wall_ms));
        }
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
