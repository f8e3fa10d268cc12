//! The timed (end-to-end) and traced (per-layer) runs of one workload.

use crate::host::{host_speed, peak_rss_mb};
use crate::replay;
use crate::sink::Recorder;
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{Kind, Plan, Target};
use nicsim::{
    FrameTracker, LatencySummary, Metrics, NicConfig, NicSystem, Probe, RunStats, StageStats,
};
use nicsim_cpu::StallBucket;
use nicsim_fleet::{Fleet, FleetConfig, FleetStats};
use nicsim_sim::{Freq, Ps};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// `(discarded, measured)` system builds per run for the set-up
/// median; the discarded ones warm the caches and the allocator.
const NIC_SETUP_BUILDS: (usize, usize) = (20, 200);
const FLEET_SETUP_BUILDS: (usize, usize) = (16, 24);

/// Median set-up seconds of `measured` calls to `build` after
/// `discarded` untimed ones.
fn setup_median<T>((discarded, measured): (usize, usize), build: impl Fn() -> T) -> (f64, u64) {
    for _ in 0..discarded {
        drop(build());
    }
    let samples: Vec<f64> = (0..measured)
        .map(|_| {
            let (system, t) = timed(&build);
            drop(system);
            t.as_secs_f64()
        })
        .collect();
    (median(&samples), measured as u64)
}

/// A pass/fail correctness check.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    /// Sample count behind each value that is a median or percentile.
    pub samples: BTreeMap<String, u64>,
    /// Counters reported for context, not gated.
    pub info: BTreeMap<&'static str, u64>,
    /// Frames offered in the measured window.
    pub attempted: u64,
    /// Simulator failures plus failed gates, counted against
    /// `attempted`.
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Metrics the workload has no data for (printed as 0).
    pub not_measured: Vec<&'static str>,
    pub spans: Option<Spans>,
}

impl Outcome {
    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn gate(&mut self, name: &'static str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.gates.push(Gate { name, ok, detail });
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn build<P: Probe>(cfg: NicConfig, probe: P) -> NicSystem<P> {
    NicSystem::build(cfg)
        .probe(probe)
        .finish()
        .expect("benchmark NIC config is valid")
}

fn new_fleet(cfg: FleetConfig, horizon: Ps) -> Fleet {
    Fleet::new(cfg, horizon).expect("benchmark fleet config is valid")
}

/// The RX latency (MAC arrival to host delivery) stage of a summary.
fn rx_total(lat: &LatencySummary) -> StageStats {
    *lat.rx_stages.last().expect("summary has RX stages")
}

/// Simulated outputs of one measured window.
struct Window {
    goodput: f64,
    rx: StageStats,
    attempted: u64,
    drops: u64,
    failures: u64,
}

/// Pool the windows of a run: goodput and the RX latency percentiles
/// are means over windows, counts are sums.
fn pool(out: &mut Outcome, windows: &[Window], smoke: bool) {
    let mean =
        |f: &dyn Fn(&Window) -> f64| windows.iter().map(f).sum::<f64>() / windows.len() as f64;
    out.set("goodput_gbps", mean(&|w| w.goodput));
    out.set("rx_lat_p50_us", mean(&|w| w.rx.p50_ps as f64 / 1e6));
    out.set("rx_lat_p99_us", mean(&|w| w.rx.p99_ps as f64 / 1e6));
    let rx_samples: u64 = windows.iter().map(|w| w.rx.count).sum();
    out.samples.insert("rx_lat_p50_us".into(), rx_samples);
    out.samples.insert("rx_lat_p99_us".into(), rx_samples);
    // Nearest-rank p99: the samples ranked above it, per window.
    let beyond = windows
        .iter()
        .map(|w| w.rx.count - (w.rx.count * 99).div_ceil(100));
    out.info
        .insert("rx_beyond_p99_min", beyond.min().unwrap_or(0));
    // Each window's p99 needs at least ten samples beyond it.
    if !smoke {
        let fewest = windows.iter().map(|w| w.rx.count).min().unwrap_or(0);
        out.gate(
            "rx_samples_at_least_1000",
            fewest >= 1000,
            format!("fewest RX frames in a window: {fewest}"),
        );
    }
    out.attempted = windows.iter().map(|w| w.attempted).sum();
    out.failed += windows.iter().map(|w| w.failures).sum::<u64>();
    let drops: u64 = windows.iter().map(|w| w.drops).sum();
    out.set("drop_ratio", drops as f64 / out.attempted.max(1) as f64);
}

/// The end-to-end run: set-up time, then simulation speed over
/// `seconds` of repetitions cycling through the plans' windows, and
/// the simulated outputs of each window, with tracing off.
pub fn end_to_end(plans: &[Plan], seconds: f64, smoke: bool) -> Outcome {
    let mut out = match plans[0].target {
        Target::Nic(_) => nic_end_to_end(plans, seconds, smoke),
        Target::Fleet(_) => fleet_end_to_end(plans, seconds, smoke),
    };
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

/// Host-time samples of the timed repetitions.
#[derive(Default)]
struct Reps {
    /// Simulated Mcycles per host second.
    raw: Vec<f64>,
    /// The same, divided by the host speed.
    scaled: Vec<f64>,
    /// Host speed measured before each repetition.
    speed: Vec<f64>,
}

/// Call `rep(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least `min` calls were made, measuring the host's speed before
/// each. `rep` returns simulated cycles and the host time they took.
fn repeat(seconds: f64, min: usize, mut rep: impl FnMut(usize) -> (f64, Duration)) -> Reps {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps = Reps::default();
    while reps.raw.len() < min || Instant::now() < deadline {
        let speed = host_speed();
        let (cycles, wall) = rep(reps.raw.len());
        let mcps = cycles / wall.as_secs_f64() / 1e6;
        reps.raw.push(mcps);
        reps.scaled.push(mcps / speed);
        reps.speed.push(speed);
    }
    reps
}

/// Record the host-time metrics: `reps` and the set-up median with its
/// sample count.
fn host_times(out: &mut Outcome, reps: Reps, (setup, builds): (f64, u64)) {
    let n = reps.raw.len() as u64;
    out.set("sim_mcps", median(&reps.scaled));
    out.set("sim_mcps_raw", median(&reps.raw));
    out.set("host_speed", median(&reps.speed));
    for name in ["sim_mcps", "sim_mcps_raw", "host_speed"] {
        out.samples.insert(name.into(), n);
    }
    out.set("setup_s", setup);
    out.samples.insert("setup_s".into(), builds);
}

fn nic_config(plan: &Plan) -> NicConfig {
    match plan.target {
        Target::Nic(cfg) => cfg,
        Target::Fleet(_) => unreachable!("a workload's plans share one target kind"),
    }
}

fn fleet_config(plan: &Plan) -> FleetConfig {
    match plan.target {
        Target::Fleet(cfg) => cfg,
        Target::Nic(_) => unreachable!("a workload's plans share one target kind"),
    }
}

fn nic_end_to_end(plans: &[Plan], seconds: f64, smoke: bool) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_median(NIC_SETUP_BUILDS, || {
        build(nic_config(&plans[0]), nicsim::NullProbe)
    });

    // The simulated outputs, one window per plan observed by the
    // shipped sinks; timing-neutral probes leave RunStats untouched,
    // which the timed repetitions below re-check.
    let mut references = Vec::new();
    let mut windows = Vec::new();
    for plan in plans {
        let mut sys = build(nic_config(plan), (FrameTracker::new(), Metrics::new()));
        let stats = sys.run_measured(plan.warmup, plan.window);
        let (tracker, metrics) = sys.unwrap_probe();
        let (rx_ok, rx_dropped) = metrics.mac_rx();
        windows.push(Window {
            goodput: stats.total_udp_gbps(),
            rx: rx_total(&tracker.summary()),
            attempted: metrics.host_tx_posted() + rx_ok + rx_dropped,
            drops: stats.rx_mac_drops,
            failures: stats.rx_corrupt + stats.rx_out_of_order + stats.tx_errors,
        });
        references.push(stats);
    }
    pool(&mut out, &windows, smoke);

    let mut mismatched = 0;
    let reps = repeat(seconds, plans.len(), |i| {
        let plan = &plans[i % plans.len()];
        let mut sys = build(nic_config(plan), nicsim::NullProbe);
        let (stats, wall) = timed(|| sys.run_measured(plan.warmup, plan.window));
        mismatched += u64::from(stats != references[i % plans.len()]);
        (sys.now().0 as f64 / sys.cpu_period().0 as f64, wall)
    });
    out.gate(
        "nullprobe_identity",
        mismatched == 0,
        format!(
            "{mismatched} of {} untraced windows differ from the probed one",
            reps.raw.len()
        ),
    );
    if plans[0].kind == Kind::Nic1RxIrq {
        let plan = &plans[0];
        let mut dense = build(nic_config(plan), nicsim::NullProbe);
        let stats = dense.run_measured_dense(plan.warmup, plan.window);
        out.gate(
            "event_equals_dense",
            stats == references[0],
            "event-kernel RunStats against run_until_dense".into(),
        );
    }
    host_times(&mut out, reps, setup);
    out
}

/// Simulated CPU cycles a fleet run covered, summed over NICs.
fn fleet_cycles(cfg: &FleetConfig, stats: &FleetStats) -> f64 {
    let period = Freq::from_mhz(cfg.nic.cpu_mhz).period();
    let per_nic = stats.epochs as f64 * cfg.fabric.link_latency.0 as f64 / period.0 as f64;
    per_nic * cfg.nics as f64
}

/// Frames in the fleet's whole transmit schedule, and an FNV-1a digest
/// of every `(time, source, destination, size)` entry in it.
fn schedule_digest(cfg: &FleetConfig, horizon: Ps) -> (u64, u64) {
    let mut frames = 0;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for src in 0..cfg.nics {
        for p in cfg.workload.schedule(src, cfg.nics, horizon) {
            frames += 1;
            for word in [p.at.0, src as u64, u64::from(p.dst), p.udp_payload as u64] {
                for byte in word.to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    (frames, digest)
}

/// Same per-NIC statistics and fabric order digest.
fn same_fleet_run(a: &FleetStats, b: &FleetStats) -> bool {
    a.per_nic == b.per_nic && a.fabric.digest == b.fabric.digest
}

fn fleet_end_to_end(plans: &[Plan], seconds: f64, smoke: bool) -> Outcome {
    let mut out = Outcome::default();
    let first = &plans[0];
    let setup = setup_median(FLEET_SETUP_BUILDS, || {
        new_fleet(fleet_config(first), first.horizon())
    });

    // The fleet always observes itself with frame trackers, so the
    // timed repetitions give the outputs: the first pass over the plans
    // keeps each window's statistics, and one more repetition re-runs
    // the first plan to check it repeats exactly.
    let mut runs: Vec<FleetStats> = Vec::new();
    let mut mismatched = 0;
    let reps = repeat(seconds, plans.len() + 1, |i| {
        let plan = &plans[i % plans.len()];
        let cfg = fleet_config(plan);
        let mut fleet = new_fleet(cfg, plan.horizon());
        let (stats, wall) = timed(|| fleet.run_measured(plan.warmup, plan.window));
        let cycles = fleet_cycles(&cfg, &stats);
        match runs.get(i % plans.len()) {
            Some(earlier) => mismatched += u64::from(!same_fleet_run(earlier, &stats)),
            None => runs.push(stats),
        }
        (cycles, wall)
    });
    out.gate(
        "fleet_repeatable",
        mismatched == 0,
        format!(
            "{mismatched} of {} repeated fleet runs differ",
            reps.raw.len() - runs.len()
        ),
    );

    let mut windows = Vec::new();
    let (mut scheduled, mut delivered, mut reordered, mut over) = (0, 0, 0, 0);
    let mut digest = 0u64;
    for (plan, stats) in plans.iter().zip(&runs) {
        let (frames, d) = schedule_digest(&fleet_config(plan), plan.horizon());
        let got = stats.delivered_frames();
        scheduled += frames;
        delivered += got;
        digest = digest.rotate_left(1) ^ d;
        // Reliable mode retransmits, and the TX monitor counts every
        // retransmission as out of sequence, so `tx_errors` is
        // reported but not counted; a frame damaged on transmit still
        // fails validation at its receiver as `rx_corrupt`.
        reordered += stats.per_nic.iter().map(|s| s.tx_errors).sum::<u64>();
        let per_nic = |f: fn(&RunStats) -> u64| stats.per_nic.iter().map(f).sum::<u64>();
        windows.push(Window {
            goodput: stats.goodput_gbps(),
            rx: rx_total(&stats.latency),
            attempted: stats.fabric.offered,
            drops: per_nic(|s| s.rx_mac_drops) + stats.fabric_drops(),
            failures: per_nic(|s| s.rx_corrupt + s.rx_out_of_order) + got.saturating_sub(frames),
        });
        over += u64::from(got > frames);
    }
    out.gate(
        "exactly_once",
        over == 0,
        format!("{delivered} delivered of {scheduled} scheduled, {over} windows over"),
    );
    pool(&mut out, &windows, smoke);
    out.info.insert("tx_errors_retransmit", reordered);
    out.info.insert("scheduled_frames", scheduled);
    out.info.insert("schedule_digest", digest);
    out.info.insert("delivered_frames", delivered);
    host_times(&mut out, reps, setup);
    out
}

/// The per-layer run: interleaved untraced and traced windows, then
/// each layer replay, all inside spans.
pub fn layers(plan: &Plan, smoke: bool) -> Outcome {
    let pairs = if smoke { 1 } else { 3 };
    let mut out = match &plan.target {
        Target::Nic(cfg) => nic_layers(plan, *cfg, pairs),
        Target::Fleet(cfg) => fleet_layers(plan, *cfg, pairs),
    };
    out.set("obs.timer_overhead_ns", replay::timer_overhead_ns());
    let spans = out.spans.as_ref().expect("layer runs record spans");
    let self_ns = spans.self_ns();
    for name in crate::metrics::SPANS {
        let v = self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / pairs as f64;
        out.set(&format!("span.{name}.self_ms"), v);
    }
    out
}

/// One untraced window on the event kernel: whole-run wall, window
/// wall, window (skipped, stepped) cycles, and the stats.
struct Untraced {
    wall: Duration,
    window_wall: Duration,
    skipped: u64,
    stepped: u64,
    stats: RunStats,
}

fn untraced_nic(plan: &Plan, cfg: NicConfig) -> Untraced {
    let t0 = Instant::now();
    let mut sys = build(cfg, nicsim::NullProbe);
    sys.run_until(plan.warmup);
    sys.reset_window();
    let (s0, k0) = sys.kernel_cycle_split();
    let ((), window_wall) = timed(|| sys.run_until(plan.horizon()));
    let (s1, k1) = sys.kernel_cycle_split();
    let stats = sys.collect();
    Untraced {
        wall: t0.elapsed(),
        window_wall,
        skipped: s1 - s0,
        stepped: k1 - k0,
        stats,
    }
}

fn nic_layers(plan: &Plan, cfg: NicConfig, pairs: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let (mut walls_u, mut walls_t, mut windows_u) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut last_u = None;
    let mut mismatched = 0;
    for _ in 0..pairs {
        let u = untraced_nic(plan, cfg);
        let t0 = Instant::now();
        let mut sys = spans.time("setup", |_| {
            build(
                cfg,
                (FrameTracker::new(), (Metrics::new(), Recorder::default())),
            )
        });
        spans.time("run", |sp| {
            sp.time("run.warmup", |_| sys.run_until(plan.warmup));
            sys.reset_window();
            sp.time("run.window", |_| sys.run_until(plan.horizon()));
        });
        let (stats, lat) = spans.time("collect", |_| (sys.collect(), sys.probe().0.summary()));
        walls_t.push(ns(t0.elapsed()));
        walls_u.push(ns(u.wall));
        windows_u.push(ns(u.window_wall));
        mismatched += u64::from(stats != u.stats);
        last = Some((sys.unwrap_probe(), stats, lat));
        last_u = Some(u);
    }
    out.gate(
        "traced_equals_untraced",
        mismatched == 0,
        format!("{mismatched} of {pairs} traced windows differ from untraced"),
    );
    let ((_, (metrics, rec)), stats, lat) = last.expect("at least one pair");
    let u = last_u.expect("at least one pair");
    let event_window_ns = median(&windows_u);

    let dense_window = spans.time("dense", |_| {
        let mut sys = build(cfg, nicsim::NullProbe);
        sys.run_until_dense(plan.warmup);
        sys.reset_window();
        let ((), wall) = timed(|| sys.run_until_dense(plan.horizon()));
        out.gate(
            "event_equals_dense",
            sys.collect() == stats,
            "event-kernel RunStats against run_until_dense".into(),
        );
        wall
    });

    let frames = (stats.tx_frames + stats.rx_frames).max(1) as f64;
    let instructions = stats.profile.total(|p| p.instructions);
    out.set(
        "sim.skipped_frac",
        u.skipped as f64 / (u.skipped + u.stepped).max(1) as f64,
    );
    out.set("sim.dense_speedup", ns(dense_window) / event_window_ns);
    out.set("sim.stepped_cycles", u.stepped as f64);
    out.set(
        "sim.ns_per_stepped_cycle",
        event_window_ns / u.stepped.max(1) as f64,
    );
    out.set("cpu.instructions", instructions as f64);
    out.set(
        "cpu.ns_per_instr",
        event_window_ns / instructions.max(1) as f64,
    );
    cpu_shares(&mut out, std::slice::from_ref(&stats));
    out.set("firmware.handler_enters", rec.handler_enters as f64);
    out.set(
        "firmware.handler_enters_per_frame",
        rec.handler_enters as f64 / frames,
    );
    let grants: u64 = metrics.sp_grants().iter().sum();
    let conflicts: u64 = metrics.sp_conflicts().iter().sum();
    out.set("mem.sp_grants", grants as f64);
    out.set(
        "mem.sp_conflict_frac",
        conflicts as f64 / (grants + conflicts).max(1) as f64,
    );
    out.set(
        "mem.fm_bursts",
        metrics.fm_bursts().iter().sum::<u64>() as f64,
    );
    out.set("mem.icache_hit_rate", metrics.icache_hit_rate());
    out.set(
        "mem.fm_mean_latency_ns",
        stats.frame_mem_mean_latency.0 as f64 / 1e3,
    );
    let [rd, wr] = metrics.dma_started();
    out.set("assists.dma_started.rd", rd as f64);
    out.set("assists.dma_started.wr", wr as f64);
    out.set("assists.dma_depth_mean.rd", metrics.dma_depth()[0].mean());
    out.set("assists.dma_depth_mean.wr", metrics.dma_depth()[1].mean());
    out.set("host.mailbox_writes", metrics.mailbox_writes() as f64);
    out.set(
        "host.mailbox_per_frame",
        metrics.mailbox_writes() as f64 / frames,
    );
    host_latency(&mut out, &lat);
    out.set("obs.events", rec.events as f64);
    out.set("obs.trace_overhead", median(&walls_t) / median(&walls_u));

    spans.time("replay", |sp| {
        let (xbar, granted) = sp.time("replay.xbar", |_| replay::crossbar(&cfg, &rec.grants));
        out.gate(
            "xbar_replay_count",
            granted == rec.grants.len() as u64 && xbar.calls == granted,
            format!("{granted} grants replayed of {} recorded", rec.grants.len()),
        );
        out.set("mem.xbar_ns_per_grant", xbar.ns_per_call);
        let (fm, serviced) = sp.time("replay.fm", |_| replay::frame_memory(&cfg, &rec.bursts));
        out.gate(
            "fm_replay_count",
            serviced == rec.bursts.len() as u64,
            format!(
                "{serviced} bursts replayed of {} recorded",
                rec.bursts.len()
            ),
        );
        out.set("mem.fm_ns_per_burst", fm.ns_per_call);
        let sinks = sp.time("replay.obs", |_| replay::sinks(&rec.kept));
        out.set("obs.ns_per_event", sinks.ns_per_call);
        // A single NIC has no fabric of its own: its wire traffic
        // runs through a two-port one.
        let fab = net_replays(&mut out, sp, 2, replay::nic_offers(&cfg, &rec.wire));
        out.set("net.fabric_dropped", fab.dropped as f64);
        out.set("net.port_hwm_bytes", fab.port_hwm_bytes as f64);
    });
    out.attempted = stats.tx_frames + stats.rx_frames + stats.rx_mac_drops;
    out.not_measured.extend([
        "net.schedule_ns_per_pkt",
        "fleet.epochs",
        "fleet.skip_frac",
        "fleet.ns_per_nic_epoch",
    ]);
    out.samples
        .insert("obs.trace_overhead".into(), pairs as u64);
    out.spans = Some(spans);
    out
}

/// `validate_frame` and `Fabric::offer` replays over `offers`.
fn net_replays(
    out: &mut Outcome,
    sp: &mut Spans,
    ports: usize,
    offers: Vec<replay::Offer>,
) -> replay::FabricOut {
    let n = offers.len() as u64;
    let (validate, ok) = sp.time("replay.validate", |_| replay::validate(&offers));
    out.gate(
        "validate_replay",
        ok == n,
        format!("{ok} of {n} frames validate"),
    );
    out.set("net.validate_ns_per_frame", validate.ns_per_call);
    let (fabric, fab) = sp.time("replay.fabric", |_| replay::fabric(ports, offers));
    out.gate(
        "fabric_replay_count",
        fab.offered == n,
        format!("{} offers replayed of {n}", fab.offered),
    );
    out.set("net.fabric_ns_per_offer", fabric.ns_per_call);
    fab
}

/// IPC and stall shares over every core of every NIC in `stats`.
fn cpu_shares(out: &mut Outcome, stats: &[RunStats]) {
    let core_cycles: u64 = stats.iter().map(|s| s.core_ticks * s.cores as u64).sum();
    let bucket = |b: StallBucket| -> f64 {
        let c: u64 = stats.iter().map(|s| s.profile.bucket_cycles(b)).sum();
        c as f64 / core_cycles.max(1) as f64
    };
    let instructions: u64 = stats
        .iter()
        .map(|s| s.profile.total(|p| p.instructions))
        .sum();
    out.set("cpu.ipc", instructions as f64 / core_cycles.max(1) as f64);
    out.set("cpu.stall_share.load", bucket(StallBucket::LoadStall));
    out.set("cpu.stall_share.sp_conflict", bucket(StallBucket::Conflict));
    out.set("cpu.stall_share.imiss", bucket(StallBucket::IMiss));
    out.set("cpu.stall_share.pipeline", bucket(StallBucket::Pipeline));
}

/// Host-side stage latencies: RX descriptor publish to delivery, and TX
/// post to MAC fetch.
fn host_latency(out: &mut Outcome, lat: &LatencySummary) {
    let p50_us = |stages: &[StageStats], name: &str| {
        stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.p50_ps as f64 / 1e6)
    };
    out.set(
        "host.rx_desc_to_deliver_p50_us",
        p50_us(&lat.rx_stages, "desc_to_deliver"),
    );
    out.set(
        "host.tx_queue_p50_us",
        p50_us(&lat.tx_stages, "post_to_fetch"),
    );
    if lat.tx_frames == 0 {
        out.not_measured.push("host.tx_queue_p50_us");
    }
}

fn fleet_layers(plan: &Plan, cfg: FleetConfig, pairs: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let horizon = plan.horizon();
    let (mut walls_u, mut walls_t) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut mismatched = 0;
    for _ in 0..pairs {
        let (untraced, wall_u) =
            timed(|| new_fleet(cfg, horizon).run_measured(plan.warmup, plan.window));
        let t0 = Instant::now();
        let mut fleet = spans.time("setup", |_| new_fleet(cfg, horizon));
        let stats = spans.time("run", |_| fleet.run_measured(plan.warmup, plan.window));
        spans.time("collect", |_| cpu_shares(&mut out, &stats.per_nic));
        walls_t.push(ns(t0.elapsed()));
        walls_u.push(ns(wall_u));
        mismatched += u64::from(!same_fleet_run(&stats, &untraced));
        last = Some(stats);
    }
    out.gate(
        "traced_equals_untraced",
        mismatched == 0,
        format!("{mismatched} of {pairs} traced fleet runs differ from untraced"),
    );
    let stats = last.expect("at least one pair");
    let nic_epochs = stats.epochs * cfg.nics as u64;
    let sum = |f: fn(&RunStats) -> u64| -> u64 { stats.per_nic.iter().map(f).sum() };
    let hits = sum(|s| s.icache_hits);
    out.set(
        "cpu.instructions",
        sum(|s| s.profile.total(|p| p.instructions)) as f64,
    );
    out.set(
        "mem.sp_grants",
        sum(|s| s.core_sp_accesses + s.assist_sp_accesses) as f64,
    );
    out.set(
        "mem.icache_hit_rate",
        hits as f64 / (hits + sum(|s| s.icache_misses)).max(1) as f64,
    );
    out.set(
        "mem.fm_mean_latency_ns",
        sum(|s| s.frame_mem_mean_latency.0) as f64 / cfg.nics as f64 / 1e3,
    );
    host_latency(&mut out, &stats.latency);
    out.set("net.fabric_dropped", stats.fabric_drops() as f64);
    out.set(
        "net.port_hwm_bytes",
        stats
            .ports
            .iter()
            .map(|p| p.max_occupancy)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("fleet.epochs", stats.epochs as f64);
    out.set(
        "fleet.skip_frac",
        stats.nic_epochs_skipped as f64 / nic_epochs.max(1) as f64,
    );
    out.set(
        "fleet.ns_per_nic_epoch",
        median(&walls_u) / nic_epochs.max(1) as f64,
    );
    out.set("obs.trace_overhead", median(&walls_t) / median(&walls_u));

    spans.time("replay", |sp| {
        let sched = sp.time("replay.schedule", |_| {
            replay::schedule(&cfg.workload, cfg.nics, horizon)
        });
        out.set("net.schedule_ns_per_pkt", sched.ns_per_call);
        let offers = replay::fleet_offers(&cfg.workload, cfg.nics, horizon);
        net_replays(&mut out, sp, cfg.nics, offers);
    });
    out.attempted = stats.fabric.offered;
    out.not_measured.extend([
        "sim.skipped_frac",
        "sim.dense_speedup",
        "sim.stepped_cycles",
        "sim.ns_per_stepped_cycle",
        "cpu.ns_per_instr",
        "firmware.handler_enters",
        "firmware.handler_enters_per_frame",
        "mem.sp_conflict_frac",
        "mem.xbar_ns_per_grant",
        "mem.fm_bursts",
        "mem.fm_ns_per_burst",
        "assists.dma_started.rd",
        "assists.dma_started.wr",
        "assists.dma_depth_mean.rd",
        "assists.dma_depth_mean.wr",
        "host.mailbox_writes",
        "host.mailbox_per_frame",
        "obs.events",
        "obs.ns_per_event",
    ]);
    out.samples
        .insert("obs.trace_overhead".into(), pairs as u64);
    out.spans = Some(spans);
    out
}
