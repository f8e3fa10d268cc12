//! The three benchmark workloads and how each turns `--seed` into its
//! inputs.

use nicsim::{DispatchMode, FwMode, NicConfig};
use nicsim_fleet::FleetConfig;
use nicsim_net::workload::Workload as FlowWorkload;
use nicsim_net::FabricConfig;
use nicsim_sim::Ps;

/// Fleet traffic, with the seed appended per run.
pub const FLEET_SPEC: &str =
    "pattern=uniform,small=64,large=1472,small_frac=0.5,arrivals=poisson,fps=200000,reliable=1";

/// Windows, each with its own workload seed, that one run simulates.
pub const WINDOWS: u64 = 8;

/// Nominal receive rate of `nic1_rx_irq`, frames per second.
const NIC1_FPS: f64 = 20_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Nic1RxIrq,
    Nic6Line,
    Fleet8Rel,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Nic1RxIrq, Kind::Nic6Line, Kind::Fleet8Rel];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Nic1RxIrq => "nic1_rx_irq",
            Kind::Nic6Line => "nic6_line",
            Kind::Fleet8Rel => "fleet8_rel",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// What one run simulates: a single NIC or a fleet, over a warm-up and
/// a measurement window.
#[derive(Debug, Clone)]
pub enum Target {
    Nic(NicConfig),
    Fleet(FleetConfig),
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub kind: Kind,
    pub target: Target,
    pub warmup: Ps,
    pub window: Ps,
    /// The seeded part of the input, for the report.
    pub input: String,
}

impl Plan {
    /// The inputs for `kind` under `seed`. `smoke` shrinks the windows
    /// to a few hundred microseconds for the benchmark's own tests.
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Plan {
        let u = unit_draw(seed);
        match kind {
            Kind::Nic1RxIrq => {
                // CBR has no randomness of its own; the seed draws the
                // exact rate within +-0.1% of 20k frames/s, which moves
                // the arrival phase against the driver's poll grid.
                let fps = NIC1_FPS * (1.0 + 0.002 * (u - 0.5));
                let cfg = NicConfig::builder()
                    .cores(1)
                    .cpu_mhz(200)
                    .mode(FwMode::SoftwareOnly)
                    .dispatch(DispatchMode::Interrupt)
                    .send_enabled(false)
                    .offered_rx_fps(Some(fps))
                    .build()
                    .expect("nic1_rx_irq config is valid");
                let window = if smoke {
                    Ps::from_us(600)
                } else {
                    Ps::from_us(52_000)
                };
                Plan {
                    kind,
                    target: Target::Nic(cfg),
                    warmup: Ps::from_us(100),
                    window,
                    input: format!("rx_fps={fps:.3}"),
                }
            }
            Kind::Nic6Line => {
                // Line-rate CBR is fixed; the seed draws where the
                // window starts, 0-100 us past the end of the ring-fill
                // transient.
                let cfg = NicConfig::rmw_166();
                let offset = Ps::from_ns((u * 100_000.0) as u64);
                let (warmup, window) = if smoke {
                    (Ps::from_us(20) + Ps(offset.0 / 100), Ps::from_us(60))
                } else {
                    (Ps::from_us(1000) + offset, Ps::from_us(1400))
                };
                Plan {
                    kind,
                    target: Target::Nic(cfg),
                    warmup,
                    window,
                    input: format!("warmup_ns={}", warmup.as_ns()),
                }
            }
            Kind::Fleet8Rel => {
                let workload = FlowWorkload::parse(&format!("{FLEET_SPEC},seed={seed}"))
                    .expect("fleet8_rel workload spec parses");
                let nic = NicConfig::builder()
                    .dispatch(DispatchMode::Interrupt)
                    .build()
                    .expect("fleet NIC config is valid");
                let cfg = FleetConfig {
                    nics: 8,
                    shards: 1,
                    nic,
                    fabric: FabricConfig::default(),
                    workload,
                };
                let (warmup, window) = if smoke {
                    (Ps::from_us(20), Ps::from_us(40))
                } else {
                    (Ps::from_us(100), Ps::from_us(1000))
                };
                Plan {
                    kind,
                    target: Target::Fleet(cfg),
                    warmup,
                    window,
                    input: format!("seed={seed}"),
                }
            }
        }
    }

    /// The plans one run covers: run seed `n` simulates workload seeds
    /// `n * W .. n * W + W`, one window each, so that its pooled figures
    /// rest on `W` independent draws of the inputs.
    pub fn for_run(kind: Kind, seed: u64, smoke: bool) -> Vec<Plan> {
        let windows = if smoke { 2 } else { WINDOWS };
        (0..windows)
            .map(|j| Plan::new(kind, seed.wrapping_mul(windows).wrapping_add(j), smoke))
            .collect()
    }

    pub fn horizon(&self) -> Ps {
        self.warmup + self.window
    }
}

/// A uniform draw in [0, 1) from the seed (splitmix64 finalizer).
fn unit_draw(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}
