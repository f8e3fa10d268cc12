//! Differential tests of the per-cycle hot paths against straightforward
//! reference models.
//!
//! The crossbar arbitrates with request bitmasks and the core walks its
//! fetch pointer by compare-and-subtract. Both replaced simpler forms: a
//! round-robin arbiter that polls a closure per requester with
//! `(last + off) % n`, and a fetch walk that divides the address by the
//! line size on every instruction. Those forms are kept here, verbatim
//! in behaviour, as the oracle: random request streams and random
//! firmware op sequences run through both, and every observable result
//! must match. Cases come from a seeded xorshift generator, as in
//! `tests/properties.rs`, so any failure reproduces exactly.

use nicsim::{Event, EventLog, NullProbe, Probe};
use nicsim_cpu::{CodeLayout, Core, CoreCtx, FwFunc, StallBucket};
use nicsim_mem::{Crossbar, ICacheConfig, InstrMemory, Scratchpad, SpOp, SpRequest};
use nicsim_sim::Ps;

/// xorshift64* — deterministic, dependency-free case generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// True with probability `pct` percent.
    fn chance(&mut self, pct: u64) -> bool {
        self.range(0, 100) < pct
    }
}

// ---------------------------------------------------------------------
// Crossbar: closure-based round-robin reference.
// ---------------------------------------------------------------------

/// Round-robin arbiter that asks each requester in turn.
struct RefRoundRobin {
    n: usize,
    last: usize,
}

impl RefRoundRobin {
    fn new(n: usize) -> RefRoundRobin {
        RefRoundRobin { n, last: n - 1 }
    }

    fn grant(&mut self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        for off in 1..=self.n {
            let i = (self.last + off) % self.n;
            if requesting(i) {
                self.last = i;
                return Some(i);
            }
        }
        None
    }
}

/// Crossbar whose tick runs one closure arbitration per bank, recomputing
/// each port's bank inside the closure.
struct RefCrossbar {
    pending: Vec<Option<SpRequest>>,
    /// `(value, ready_at)` per port.
    response: Vec<Option<(u32, u64)>>,
    grants: Vec<u64>,
    conflicts: Vec<u64>,
    arbiters: Vec<RefRoundRobin>,
    bank_busy: Vec<u64>,
    cycle: u64,
}

impl RefCrossbar {
    fn new(ports: usize, banks: usize) -> RefCrossbar {
        RefCrossbar {
            pending: vec![None; ports],
            response: vec![None; ports],
            grants: vec![0; ports],
            conflicts: vec![0; ports],
            arbiters: (0..banks).map(|_| RefRoundRobin::new(ports)).collect(),
            bank_busy: vec![0; banks],
            cycle: 0,
        }
    }

    fn idle(&self, p: usize) -> bool {
        self.pending[p].is_none() && self.response[p].is_none()
    }

    fn take_response(&mut self, p: usize) -> Option<u32> {
        match self.response[p] {
            Some((v, ready_at)) if ready_at <= self.cycle => {
                self.response[p] = None;
                Some(v)
            }
            _ => None,
        }
    }

    fn tick(&mut self, sp: &mut Scratchpad, now: Ps, probe: &mut EventLog) {
        self.cycle += 1;
        for bank in 0..self.arbiters.len() {
            let pending = &self.pending;
            let winner = self.arbiters[bank]
                .grant(|p| pending[p].is_some_and(|q| sp.bank_of(q.addr) == bank));
            if let Some(p) = winner {
                let req = self.pending[p].take().unwrap();
                let value = sp.execute(req);
                probe.emit(Event::SpGrant {
                    port: p,
                    bank,
                    addr: req.addr,
                    write: req.op.is_write(),
                    at: now,
                });
                self.response[p] = Some((value, self.cycle + 1));
                self.grants[p] += 1;
                self.bank_busy[bank] += 1;
            }
        }
        for p in 0..self.pending.len() {
            if let Some(q) = self.pending[p] {
                self.conflicts[p] += 1;
                probe.emit(Event::SpConflict {
                    port: p,
                    bank: sp.bank_of(q.addr),
                    at: now,
                });
            }
        }
    }
}

fn random_op(rng: &mut Rng) -> SpOp {
    match rng.range(0, 5) {
        0 => SpOp::Read,
        1 => SpOp::Write(rng.next() as u32),
        2 => SpOp::TestAndSet,
        3 => SpOp::SetBit(rng.range(0, 32) as u8),
        _ => SpOp::Update {
            start_bit: rng.range(0, 32) as u8,
        },
    }
}

/// Replay one random request stream through both crossbars and require
/// identical grants, responses, per-port and per-bank counters, probe
/// streams and scratchpad contents.
fn replay(rng: &mut Rng, ports: usize, banks: usize, cycles: u64) {
    const SP_BYTES: usize = 4096;
    let mut sp = Scratchpad::new(SP_BYTES, banks);
    let mut ref_sp = Scratchpad::new(SP_BYTES, banks);
    let mut xbar = Crossbar::new(ports, banks);
    let mut reference = RefCrossbar::new(ports, banks);
    let mut log = EventLog::new();
    let mut ref_log = EventLog::new();
    // A narrow address window makes bank conflicts the common case; a
    // wide one spreads requests out.
    let words = if rng.chance(50) {
        rng.range(1, 3 * banks as u64 + 1)
    } else {
        (SP_BYTES / 4) as u64
    };
    let submit_pct = rng.range(10, 101);
    let take_pct = rng.range(30, 101);
    for cycle in 0..cycles {
        for p in 0..ports {
            assert_eq!(xbar.port_idle(p), reference.idle(p), "port {p} idle");
            if reference.idle(p) && rng.chance(submit_pct) {
                let req = SpRequest {
                    addr: rng.range(0, words) as u32 * 4,
                    op: random_op(rng),
                };
                xbar.submit(p, req);
                reference.pending[p] = Some(req);
            }
        }
        let now = Ps(cycle);
        xbar.tick_probed(&mut sp, now, &mut log);
        reference.tick(&mut ref_sp, now, &mut ref_log);
        for p in 0..ports {
            if rng.chance(take_pct) {
                assert_eq!(
                    xbar.take_response(p),
                    reference.take_response(p),
                    "response on port {p} at cycle {cycle}"
                );
            }
        }
    }
    let case = format!("{ports} ports, {banks} banks");
    assert_eq!(log.events(), ref_log.events(), "probe stream, {case}");
    for p in 0..ports {
        let st = xbar.port_stats(p);
        assert_eq!(st.grants, reference.grants[p], "grants on port {p}, {case}");
        assert_eq!(
            st.conflict_cycles, reference.conflicts[p],
            "conflict cycles on port {p}, {case}"
        );
    }
    assert_eq!(xbar.bank_busy_cycles(), &reference.bank_busy[..], "{case}");
    for addr in (0..SP_BYTES as u32).step_by(4) {
        assert_eq!(sp.peek(addr), ref_sp.peek(addr), "word {addr:#x}, {case}");
    }
}

/// Mask arbitration matches the closure reference for every port count
/// from 1 to the 64-port limit, on power-of-two and other bank counts.
#[test]
fn mask_crossbar_matches_closure_reference() {
    let mut rng = Rng::new(0x0a4b_1e7e_0001);
    for banks in [1, 3, 4, 5] {
        for ports in 1..=Crossbar::MAX_PORTS {
            let cycles = if ports <= 12 { 400 } else { 120 };
            replay(&mut rng, ports, banks, cycles);
        }
    }
}

/// Mask grants match the closure grants on arbitrary request patterns,
/// including the top bit of a full-width arbiter.
#[test]
fn mask_round_robin_matches_closure_reference() {
    let mut rng = Rng::new(0x0a4b_1e7e_0002);
    for n in 1..=64usize {
        let mut rr = nicsim_sim::RoundRobin::new(n);
        let mut reference = RefRoundRobin::new(n);
        let width = u64::MAX >> (64 - n);
        for _ in 0..200 {
            let mask = match rng.range(0, 4) {
                0 => 0,
                1 => 1 << rng.range(0, n as u64),
                2 => width,
                _ => rng.next() & width,
            };
            assert_eq!(
                rr.grant(mask),
                reference.grant(|i| mask >> i & 1 == 1),
                "n={n} mask={mask:#x}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Core fetch walk: division-based reference.
// ---------------------------------------------------------------------

/// Set-associative true-LRU cache that derives line, set and tag by
/// division on every lookup.
struct RefICache {
    cfg: ICacheConfig,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl RefICache {
    fn new(cfg: ICacheConfig) -> RefICache {
        RefICache {
            cfg,
            sets: vec![Vec::new(); cfg.sets()],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes as u64;
        let n_sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % n_sets) as usize];
        let tag = line / n_sets;
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.push(t);
            self.hits += 1;
            true
        } else {
            if set.len() == self.cfg.ways {
                set.remove(0);
            }
            set.push(tag);
            self.misses += 1;
            false
        }
    }
}

/// The fetch walk with a division and two remainders per chunk.
struct RefFetch {
    icache: RefICache,
    imem: InstrMemory,
    layout: CodeLayout,
    vpc_off: u64,
    fetch_func: FwFunc,
    last_line: Option<u64>,
}

impl RefFetch {
    fn new(cfg: ICacheConfig) -> RefFetch {
        RefFetch {
            icache: RefICache::new(cfg),
            imem: InstrMemory::new(),
            layout: CodeLayout::new(),
            vpc_off: 0,
            fetch_func: FwFunc::Idle,
            last_line: None,
        }
    }

    /// I-miss stall cycles for `n` instructions of `func` issued at
    /// `cycle`.
    fn touch(&mut self, func: FwFunc, mut n: u32, cycle: u64) -> u64 {
        let (base, len_instr) = self.layout.region(func);
        let region_bytes = len_instr as u64 * 4;
        if func != self.fetch_func {
            self.fetch_func = func;
            self.vpc_off = 0;
            self.last_line = None;
        }
        let line_bytes = self.icache.cfg.line_bytes as u64;
        let mut stall = 0;
        while n > 0 {
            let addr = base + self.vpc_off;
            let line = addr / line_bytes;
            if self.last_line != Some(line) {
                self.last_line = Some(line);
                if !self.icache.access(addr) {
                    let now = cycle + stall;
                    stall += self.imem.fill(now, line_bytes) - now;
                }
            }
            let line_off = self.vpc_off % line_bytes;
            let in_line = ((line_bytes - line_off) / 4) as u32;
            let take = n.min(in_line.max(1));
            self.vpc_off = (self.vpc_off + take as u64 * 4) % region_bytes;
            n -= take;
        }
        stall
    }
}

/// A random firmware program: `(tag, alu count)` per op. Runs of the
/// same tag long enough to wrap every region alternate with handler
/// switches.
fn random_program(rng: &mut Rng, ops: usize) -> Vec<(FwFunc, u32)> {
    let mut func = FwFunc::Idle;
    (0..ops)
        .map(|_| {
            if rng.chance(30) {
                func = FwFunc::ALL[rng.range(0, FwFunc::ALL.len() as u64) as usize];
            }
            (func, rng.range(1, 65) as u32)
        })
        .collect()
}

/// On cache and line geometries that are not powers of two, the core's
/// I-cache hits, misses and I-miss stall cycles equal what the
/// division-based fetch walk predicts for the same program.
#[test]
fn fetch_walk_matches_division_reference_on_odd_geometries() {
    let geometries = [
        // 6 KB 2-way, 32-byte lines: 96 sets.
        (6144, 2, 32),
        // 48-byte lines (region bases and lengths straddle lines): 64
        // and 48 sets.
        (6144, 2, 48),
        (4608, 2, 48),
        // The paper's cache, for contrast.
        (8192, 2, 32),
    ];
    let mut rng = Rng::new(0x0a4b_1e7e_0003);
    for (bytes, ways, line_bytes) in geometries {
        let cfg = ICacheConfig {
            bytes,
            ways,
            line_bytes,
        };
        let program = random_program(&mut rng, 3000);

        // Expected: the first poll happens on cycle 1, and each op's
        // successor is polled once its I-miss and execution cycles have
        // elapsed.
        let mut reference = RefFetch::new(cfg);
        let mut cycle = 1;
        let mut imiss = 0;
        for &(func, n) in &program {
            let stall = reference.touch(func, n, cycle);
            imiss += stall;
            cycle += stall + n as u64;
        }

        let mut core = Core::new(0, cfg, CodeLayout::new());
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            for (func, n) in program {
                ctx.set_func(func);
                ctx.alu(n).await;
            }
        });
        let mut xbar = Crossbar::new(1, 1);
        let mut sp = Scratchpad::new(4096, 1);
        let mut imem = InstrMemory::new();
        while !core.halted() {
            xbar.tick(&mut sp);
            core.tick(&mut xbar, &mut imem, Ps::ZERO, &mut NullProbe);
        }
        let case = format!("{bytes} B {ways}-way, {line_bytes} B lines");
        assert_eq!(core.icache().hits(), reference.icache.hits, "hits, {case}");
        assert_eq!(
            core.icache().misses(),
            reference.icache.misses,
            "misses, {case}"
        );
        assert!(reference.icache.misses > cfg.sets() as u64, "{case}");
        assert_eq!(
            core.profile().bucket_cycles(StallBucket::IMiss),
            imiss,
            "I-miss cycles, {case}"
        );
    }
}

// ---------------------------------------------------------------------
// Firmware op queue: one-op-per-poll reference.
// ---------------------------------------------------------------------

/// Scratchpad words the random programs lock (never touched otherwise,
/// so no program deadlocks on a word it set itself).
const LOCKS: [u32; 2] = [0, 4];
/// First data byte address; data words are 16 above it.
const DATA: u32 = 16;

/// One step of a random firmware program.
#[derive(Debug, Clone, Copy)]
enum FwStep {
    Func(FwFunc),
    Alu(u32),
    /// `alu(acc % 4)`: an op count that depends on loaded values.
    AluAcc,
    Branch,
    BranchMiss,
    Load(u32),
    Store(u32, u32),
    TestAndSet(u32),
    SetBit(u32, u32),
    Update(u32, u32),
    Lock(u32),
    Unlock(u32),
    /// `try_lock`, and `unlock` if it was acquired.
    TryLock(u32),
    Wfi,
}

fn random_func(rng: &mut Rng) -> FwFunc {
    FwFunc::ALL[rng.range(0, FwFunc::ALL.len() as u64) as usize]
}

fn data_addr(rng: &mut Rng) -> u32 {
    DATA + rng.range(0, 16) as u32 * 4
}

/// An op the program runs without suspending (its API returns `()`).
fn unit_step(rng: &mut Rng) -> FwStep {
    match rng.range(0, 7) {
        0 => FwStep::Alu(rng.range(0, 12) as u32),
        1 => FwStep::Branch,
        2 => FwStep::BranchMiss,
        3 | 4 => FwStep::Store(data_addr(rng), rng.next() as u32),
        5 => FwStep::SetBit(DATA, rng.range(0, 64) as u32),
        _ => FwStep::Wfi,
    }
}

/// An op outside lock sections: any unit op, a value op, or a retag.
fn free_step(rng: &mut Rng) -> FwStep {
    match rng.range(0, 10) {
        0 => FwStep::Func(random_func(rng)),
        1 | 2 => FwStep::Load(data_addr(rng)),
        3 => FwStep::TestAndSet(data_addr(rng)),
        4 => FwStep::Update(DATA, rng.range(0, 64) as u32),
        5 => FwStep::AluAcc,
        _ => unit_step(rng),
    }
}

/// A random program of about `len` steps. Retags land between queued
/// ops; unit-op runs outlast the ring; lock sections hold no other lock;
/// half the programs end in a run of unit ops.
fn random_fw_program(rng: &mut Rng, len: usize) -> Vec<FwStep> {
    let wfi_ok = rng.chance(50);
    let mut steps = Vec::new();
    while steps.len() < len {
        match rng.range(0, 10) {
            0 => {
                // A run of unit ops, often longer than the ring.
                for _ in 0..rng.range(1, 3 * nicsim_cpu::RING_DEPTH as u64) {
                    steps.push(unit_step(rng));
                    if rng.chance(20) {
                        steps.push(FwStep::Func(random_func(rng)));
                    }
                }
            }
            1 => {
                let lock = LOCKS[rng.range(0, 2) as usize];
                steps.push(FwStep::Lock(lock));
                for _ in 0..rng.range(0, 6) {
                    steps.push(free_step(rng));
                }
                steps.push(FwStep::Unlock(lock));
            }
            2 => steps.push(FwStep::TryLock(LOCKS[rng.range(0, 2) as usize])),
            _ => steps.push(free_step(rng)),
        }
    }
    if rng.chance(50) {
        for _ in 0..rng.range(1, 2 * nicsim_cpu::RING_DEPTH as u64) {
            steps.push(unit_step(rng));
        }
    }
    if !wfi_ok {
        steps.retain(|s| !matches!(s, FwStep::Wfi));
    }
    steps
}

/// Run `steps` on `ctx`. With `one_op_per_poll`, every step first waits
/// for the engine to charge all queued ops: the firmware never runs
/// ahead, which is the hand-off protocol the op queue replaced.
async fn run_fw_program(ctx: CoreCtx, steps: Vec<FwStep>, one_op_per_poll: bool) {
    let mut acc = 0u32;
    for step in steps {
        if one_op_per_poll {
            ctx.drain().await;
        }
        match step {
            FwStep::Func(f) => {
                ctx.set_func(f);
            }
            FwStep::Alu(n) => ctx.alu(n).await,
            FwStep::AluAcc => ctx.alu(acc % 4).await,
            FwStep::Branch => ctx.branch().await,
            FwStep::BranchMiss => ctx.branch_miss().await,
            FwStep::Load(a) => acc = acc.rotate_left(5) ^ ctx.load(a).await,
            FwStep::Store(a, v) => ctx.store(a, v ^ acc).await,
            FwStep::TestAndSet(a) => acc ^= ctx.test_and_set(a).await,
            FwStep::SetBit(base, bit) => ctx.set_bit(base, bit).await,
            FwStep::Update(base, bit) => acc = acc.wrapping_add(ctx.update(base, bit).await),
            FwStep::Lock(a) => ctx.lock(a).await,
            FwStep::Unlock(a) => ctx.unlock(a).await,
            FwStep::TryLock(a) => {
                if ctx.try_lock(a).await {
                    ctx.unlock(a).await;
                }
            }
            FwStep::Wfi => ctx.wfi().await,
        }
    }
}

/// Everything observable about one run of a set of programs.
#[derive(Debug, PartialEq)]
struct FwRun {
    profiles: Vec<nicsim_cpu::CoreProfile>,
    /// Engine stats with `polls` moved out: the two protocols differ there.
    stats: Vec<nicsim_cpu::engine::CoreEngineStats>,
    halt_ticks: Vec<Option<u64>>,
    events: Vec<Event>,
    words: Vec<u32>,
}

/// Run one program per core to completion; `wake_seed` draws the ticks
/// at which each core's wake line is raised. Returns the run and the
/// total polls of the firmware futures.
fn run_fw(programs: &[Vec<FwStep>], one_op_per_poll: bool, wake_seed: u64) -> (FwRun, u64) {
    const SP_BYTES: usize = 256;
    let n = programs.len();
    let mut cores: Vec<Core> = (0..n)
        .map(|i| Core::new(i, ICacheConfig::default(), CodeLayout::new()))
        .collect();
    for (i, core) in cores.iter_mut().enumerate() {
        let ctx = CoreCtx::new(core.slot(), i);
        core.install(run_fw_program(ctx, programs[i].clone(), one_op_per_poll));
    }
    let mut xbar = Crossbar::new(n, 4);
    let mut sp = Scratchpad::new(SP_BYTES, 4);
    let mut imem = InstrMemory::new();
    let mut log = EventLog::new();
    let mut wakes = Rng::new(wake_seed);
    let mut halt_ticks = vec![None; n];
    let mut tick = 0;
    while cores.iter().any(|c| !c.halted()) {
        assert!(tick < 1_000_000, "programs did not halt");
        for core in cores.iter_mut() {
            if wakes.chance(4) {
                core.raise_wake();
            }
        }
        let now = Ps(tick);
        xbar.tick_probed(&mut sp, now, &mut log);
        for (i, core) in cores.iter_mut().enumerate() {
            core.tick(&mut xbar, &mut imem, now, &mut log);
            if core.halted() && halt_ticks[i].is_none() {
                halt_ticks[i] = Some(tick);
            }
        }
        tick += 1;
    }
    let polls = cores.iter().map(|c| c.engine_stats().polls).sum();
    let run = FwRun {
        profiles: cores.iter().map(|c| c.profile().clone()).collect(),
        stats: cores
            .iter()
            .map(|c| nicsim_cpu::engine::CoreEngineStats {
                polls: 0,
                ..c.engine_stats()
            })
            .collect(),
        halt_ticks,
        events: log.events().to_vec(),
        words: (0..SP_BYTES as u32)
            .step_by(4)
            .map(|a| sp.peek(a))
            .collect(),
    };
    (run, polls)
}

/// Random programs on 1 and 2 cores give the same profiles, engine
/// stats, probe streams (handler entries, I-cache accesses, scratchpad
/// grants and conflicts), memory and halt ticks whether the firmware
/// queues unit ops ahead of the engine or waits for each op.
#[test]
fn op_queue_matches_one_op_per_poll_reference() {
    let mut rng = Rng::new(0x0a4b_1e7e_0004);
    for case in 0..48 {
        let cores = 1 + case % 2;
        let programs: Vec<_> = (0..cores)
            .map(|_| {
                let len = rng.range(20, 400) as usize;
                random_fw_program(&mut rng, len)
            })
            .collect();
        let wake_seed = rng.next();
        let (queued, queued_polls) = run_fw(&programs, false, wake_seed);
        let (reference, reference_polls) = run_fw(&programs, true, wake_seed);
        assert_eq!(queued.profiles, reference.profiles, "profiles, case {case}");
        assert_eq!(queued.stats, reference.stats, "engine stats, case {case}");
        assert_eq!(
            queued.halt_ticks, reference.halt_ticks,
            "halt ticks, case {case}"
        );
        assert_eq!(queued.events, reference.events, "probe stream, case {case}");
        assert_eq!(queued.words, reference.words, "scratchpad, case {case}");
        assert!(
            queued_polls < reference_polls,
            "queued ops save polls: {queued_polls} vs {reference_polls}, case {case}"
        );
    }
}
