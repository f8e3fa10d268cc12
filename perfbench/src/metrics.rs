//! The metric tables: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` declares the same names; the smoke test holds the
//! two in step.

/// End-to-end metrics, measured with tracing off. `declared` marks the
/// ones `BENCHMARK.json` bounds. The two ratios read 0 on a healthy
/// run, so they are printed in the report and gated through
/// `failed`/`attempted` instead; the raw simulation speed and the host
/// speed it is scaled by are printed for reference.
pub const END_TO_END: [(&str, &str, bool); 10] = [
    ("setup_s", "s", true),
    ("sim_mcps", "Mcycles/s", true),
    ("peak_rss_mb", "MB", true),
    ("goodput_gbps", "Gb/s", true),
    ("rx_lat_p50_us", "us", true),
    ("rx_lat_p99_us", "us", true),
    ("drop_ratio", "ratio", false),
    ("fail_ratio", "ratio", false),
    ("sim_mcps_raw", "Mcycles/s", false),
    ("host_speed", "x", false),
];

/// Span names of the traced run, each reported as its self time.
pub const SPANS: [&str; 13] = [
    "setup",
    "run",
    "run.warmup",
    "run.window",
    "collect",
    "dense",
    "replay",
    "replay.xbar",
    "replay.fm",
    "replay.fabric",
    "replay.validate",
    "replay.schedule",
    "replay.obs",
];

/// Per-layer metrics of the traced run (span self times follow as
/// `span.<name>.self_ms`).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("sim.skipped_frac", "ratio"),
    ("sim.dense_speedup", "x"),
    ("sim.stepped_cycles", "count"),
    ("sim.ns_per_stepped_cycle", "ns"),
    ("cpu.instructions", "count"),
    ("cpu.ns_per_instr", "ns"),
    ("cpu.ipc", "ratio"),
    ("cpu.stall_share.load", "ratio"),
    ("cpu.stall_share.sp_conflict", "ratio"),
    ("cpu.stall_share.imiss", "ratio"),
    ("cpu.stall_share.pipeline", "ratio"),
    ("firmware.handler_enters", "count"),
    ("firmware.handler_enters_per_frame", "ratio"),
    ("mem.sp_grants", "count"),
    ("mem.sp_conflict_frac", "ratio"),
    ("mem.xbar_ns_per_grant", "ns"),
    ("mem.fm_bursts", "count"),
    ("mem.fm_ns_per_burst", "ns"),
    ("mem.fm_mean_latency_ns", "ns"),
    ("mem.icache_hit_rate", "ratio"),
    ("assists.dma_started.rd", "count"),
    ("assists.dma_started.wr", "count"),
    ("assists.dma_depth_mean.rd", "count"),
    ("assists.dma_depth_mean.wr", "count"),
    ("host.mailbox_writes", "count"),
    ("host.mailbox_per_frame", "ratio"),
    ("host.rx_desc_to_deliver_p50_us", "us"),
    ("host.tx_queue_p50_us", "us"),
    ("net.fabric_ns_per_offer", "ns"),
    ("net.validate_ns_per_frame", "ns"),
    ("net.schedule_ns_per_pkt", "ns"),
    ("net.fabric_dropped", "count"),
    ("net.port_hwm_bytes", "bytes"),
    ("fleet.epochs", "count"),
    ("fleet.skip_frac", "ratio"),
    ("fleet.ns_per_nic_epoch", "ns"),
    ("obs.events", "count"),
    ("obs.ns_per_event", "ns"),
    ("obs.trace_overhead", "ratio"),
    ("obs.timer_overhead_ns", "ns"),
];

/// Every per-layer `(name, unit)` pair, span self times included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(SPANS.iter().map(|s| (format!("span.{s}.self_ms"), "ms")))
        .collect()
}
