//! Layer replays: recorded streams fed back through each layer's public
//! API, timed in batches so the clock is read once per batch rather
//! than once per call.

use crate::sink::{Burst, Grant, WireFrame};
use crate::stats::median;
use nicsim::{Event, FrameTracker, Metrics, NicConfig, Probe};
use nicsim_mem::{Crossbar, FrameMemory, Scratchpad, SpOp, SpRequest, StreamId};
use nicsim_net::workload::Workload;
use nicsim_net::{build_udp_frame, set_endpoints, validate_frame, Fabric, FabricConfig};
use nicsim_sim::Ps;
use std::hint::black_box;
use std::time::Instant;

/// Calls timed per clock read.
const BATCH: usize = 512;

/// Result of one replay: calls made and the median host time per call
/// over the batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub calls: u64,
    pub ns_per_call: f64,
}

/// Feed `items` to `f` in batches of [`BATCH`] items, reading the clock
/// once per batch. `f` returns how many layer calls the item made.
fn batched<T>(items: Vec<T>, mut f: impl FnMut(T) -> u64) -> Timed {
    let mut per_call = Vec::new();
    let mut calls = 0;
    let mut it = items.into_iter().peekable();
    while it.peek().is_some() {
        let t0 = Instant::now();
        let n: u64 = it.by_ref().take(BATCH).map(&mut f).sum();
        let dt = t0.elapsed().as_nanos() as f64;
        if n > 0 {
            per_call.push(dt / n as f64);
        }
        calls += n;
    }
    Timed {
        calls,
        ns_per_call: median(&per_call),
    }
}

/// Host cost of one pair of clock reads, in nanoseconds: the overhead
/// each batch carries once.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 10_000;
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Replay the window's scratchpad grants through a fresh crossbar and
/// scratchpad of the NIC's geometry: each recorded cycle's grants are
/// submitted together, arbitrated in one tick, and their responses
/// taken on the next cycle. Returns the replay and the grants it made.
pub fn crossbar(cfg: &NicConfig, grants: &[Grant]) -> (Timed, u64) {
    let ports = grants
        .iter()
        .map(|g| g.port as usize + 1)
        .max()
        .unwrap_or(1);
    let mut sp = Scratchpad::new(cfg.scratchpad_bytes, cfg.banks);
    let mut xbar = Crossbar::new(ports, cfg.banks);
    let mut cycles: Vec<&[Grant]> = Vec::new();
    let mut rest = grants;
    while let Some(first) = rest.first() {
        let n = rest.iter().take_while(|g| g.at == first.at).count();
        let (cycle, tail) = rest.split_at(n);
        cycles.push(cycle);
        rest = tail;
    }
    let timed = batched(cycles, |cycle| {
        for g in cycle {
            let op = if g.write {
                SpOp::Write(g.addr)
            } else {
                SpOp::Read
            };
            xbar.submit(g.port as usize, SpRequest { addr: g.addr, op });
        }
        xbar.tick(&mut sp);
        // A recorded cycle never grants one bank twice, but arbitrate
        // any leftover so every port is free for its next request.
        while xbar.needs_tick() {
            xbar.tick(&mut sp);
        }
        xbar.skip_cycles(1);
        for g in cycle {
            black_box(xbar.take_response(g.port as usize));
        }
        cycle.len() as u64
    });
    (timed, xbar.total_grants())
}

/// Replay the window's frame-memory bursts through a fresh controller:
/// each burst is submitted at its recorded grant time and the
/// controller advanced to it. Addresses are not recorded, so each
/// stream walks its own region. Returns the replay and the bursts the
/// controller serviced.
pub fn frame_memory(cfg: &NicConfig, bursts: &[Burst]) -> (Timed, u64) {
    const REGION: u32 = 2 << 20;
    let mut fm = FrameMemory::new(cfg.frame_memory);
    let data = vec![0u8; bursts.iter().map(|b| b.bytes as usize).max().unwrap_or(0)];
    let mut cursor = [0u32; 4];
    let mut last = Ps::ZERO;
    let timed = batched(bursts.to_vec(), |b| {
        let s = b.stream.index();
        let stream = StreamId::ALL[s];
        if cursor[s] + b.bytes >= REGION {
            cursor[s] = 0;
        }
        let addr = s as u32 * REGION + cursor[s];
        cursor[s] += b.bytes.next_multiple_of(64);
        if b.write {
            fm.submit_write(stream, addr, &data[..b.bytes as usize], 0, b.start);
        } else {
            fm.submit_read(stream, addr, b.bytes, 0, b.start);
        }
        black_box(fm.advance(b.start));
        last = b.start;
        1
    });
    // Drain: every queued burst completes within a millisecond.
    black_box(fm.advance(last + Ps::from_ms(1)));
    (timed, fm.bursts())
}

/// A frame offered to the fabric at `at` by `src`.
pub struct Offer {
    pub at: Ps,
    pub src: usize,
    pub frame: Vec<u8>,
}

/// The single NIC's wire traffic as a two-port flow: frames it sent
/// leave port 0 for port 1, frames it received come from port 1.
pub fn nic_offers(cfg: &NicConfig, wire: &[WireFrame]) -> Vec<Offer> {
    let mut out: Vec<Offer> = wire
        .iter()
        .map(|w| {
            let (src, dst) = if w.rx { (1, 0) } else { (0, 1) };
            let mut frame = build_udp_frame(w.seq, cfg.udp_payload);
            set_endpoints(&mut frame, src, dst);
            Offer {
                at: w.at,
                src: src as usize,
                frame,
            }
        })
        .collect();
    out.sort_by_key(|o| (o.at, o.src));
    out
}

/// The fleet's merged transmit schedule as fabric offers, in the
/// canonical `(time, source)` order the epoch exchange uses.
pub fn fleet_offers(workload: &Workload, nics: usize, horizon: Ps) -> Vec<Offer> {
    let mut out = Vec::new();
    for src in 0..nics {
        for (n, p) in workload
            .schedule(src, nics, horizon)
            .into_iter()
            .enumerate()
        {
            let mut frame = build_udp_frame(((src as u32) << 24) | n as u32, p.udp_payload);
            set_endpoints(&mut frame, src as u16, p.dst);
            out.push(Offer {
                at: p.at,
                src,
                frame,
            });
        }
    }
    out.sort_by_key(|o| (o.at, o.src));
    out
}

/// `validate_frame` over every offered frame. Returns the replay and
/// how many frames validated.
pub fn validate(offers: &[Offer]) -> (Timed, u64) {
    let mut ok = 0;
    let timed = batched(offers.iter().collect(), |o| {
        ok += u64::from(black_box(validate_frame(&o.frame)).is_ok());
        1
    });
    (timed, ok)
}

/// Fabric totals after a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricOut {
    pub offered: u64,
    pub dropped: u64,
    pub port_hwm_bytes: u64,
}

/// `Fabric::offer` over every frame, on a default fabric with `ports`
/// ports.
pub fn fabric(ports: usize, offers: Vec<Offer>) -> (Timed, FabricOut) {
    let mut fabric = Fabric::new(ports, FabricConfig::default());
    let timed = batched(offers, |o| {
        black_box(fabric.offer(o.at, o.src, o.frame));
        1
    });
    let stats = fabric.stats();
    let out = FabricOut {
        offered: stats.offered,
        dropped: stats.dropped,
        port_hwm_bytes: fabric
            .port_stats()
            .iter()
            .map(|p| p.max_occupancy)
            .max()
            .unwrap_or(0),
    };
    (timed, out)
}

/// `Workload::schedule` for every NIC; the calls are counted in
/// scheduled packets.
pub fn schedule(workload: &Workload, nics: usize, horizon: Ps) -> Timed {
    batched((0..nics).collect(), |nic| {
        black_box(workload.schedule(nic, nics, horizon)).len() as u64
    })
}

/// `Probe::emit` of the shipped sinks, `(FrameTracker, Metrics)`, over
/// recorded events.
pub fn sinks(events: &[Event]) -> Timed {
    let mut probe = (FrameTracker::new(), Metrics::new());
    let timed = batched(events.to_vec(), |ev| {
        probe.emit(ev);
        1
    });
    black_box(&probe);
    timed
}
