//! The dispatch loop every core runs (Figure 5).
//!
//! The loop walks the work sources in rotating order (offset by core id
//! to spread lock pressure), peeks each source's hardware progress
//! pointer against its claim pointer, and runs the matching handler when
//! work exists. Peeking quiet sources is charged to the idle bucket; the
//! dispatch cost proper — claiming a work bundle, constructing the event
//! structure, ordering and committing frames — is charged inside the
//! handlers to the direction's "Dispatch and Ordering" bucket.

use crate::handlers::HostRegs;
use crate::mode::{peek_bit_pending, peek_work, DispatchMode, Fw};
use nicsim_cpu::{CoreCtx, FwFunc};

/// The work sources the dispatch loop polls for the default topology:
/// the seven hardware progress pointers plus the three pending-commit
/// checks that guarantee a frame marked complete is committed even when
/// no further completions arrive. Extra DMA engines append two sources
/// each (their read and write done counters) after these, so the
/// default scan order is unchanged.
const N_SOURCES: usize = 10;

impl Fw {
    /// How many sources this topology's dispatch loop scans.
    pub fn n_sources(&self) -> usize {
        N_SOURCES + 2 * (self.m.n_dma as usize - 1)
    }

    /// An instruction fault fired as the handler was about to run: abort
    /// before any handler state changes (the claimed work simply stays
    /// pending and the next scan retries it) and charge the core-restart
    /// penalty — pipeline flush, fault vector, state re-load. Counts as
    /// work done so an interrupt-mode core re-scans instead of parking.
    async fn fw_fault_abort(&self) -> bool {
        let ctx = &self.ctx;
        ctx.branch_miss().await; // vectored into the fault handler
        ctx.alu(64).await; // save/restore + restart sequence
        true
    }

    async fn run_source(&self, src: usize, host: &HostRegs) -> bool {
        let ctx = &self.ctx;
        let m = &self.m;
        // Polling a quiet source is idle time; the dispatch cost proper
        // (claim, event construction, ordering) is charged inside the
        // handlers.
        ctx.set_func(FwFunc::Idle);
        match src {
            0 => {
                if peek_work(ctx, m.sb_mailbox_prod, m.sb_fetched).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.fetch_send_bds(host).await
                } else {
                    false
                }
            }
            1 => {
                if peek_work(ctx, m.dmard_done, m.dmard_claim).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.process_dmard_completions(0).await
                } else {
                    false
                }
            }
            2 => {
                if peek_work(ctx, m.sbd_parsed, m.sbd_cons).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.send_frames().await
                } else {
                    false
                }
            }
            3 => {
                if peek_work(ctx, m.mactx_done, m.send_txdone_claim).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.process_mactx_done(host).await
                } else {
                    false
                }
            }
            4 => {
                if peek_work(ctx, m.rb_mailbox_prod, m.rb_fetched).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.fetch_recv_bds(host).await
                } else {
                    false
                }
            }
            5 => {
                if peek_work(ctx, m.macrx_prod, m.recv_claim).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.recv_frames().await
                } else {
                    false
                }
            }
            6 => {
                if peek_work(ctx, m.dmawr_done, m.dmawr_claim).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.process_dmawr_completions(0, host).await
                } else {
                    false
                }
            }
            7 => {
                if peek_bit_pending(ctx, m.send_ready_bits, m.send_ready_commit).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.commit_send_ready().await;
                    true
                } else {
                    false
                }
            }
            8 => {
                if peek_bit_pending(ctx, m.send_txdone_bits, m.send_txdone_commit).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.commit_txdone(host).await;
                    true
                } else {
                    false
                }
            }
            9 => {
                if peek_bit_pending(ctx, m.recv_done_bits, m.recv_commit).await {
                    if self.fw_fault_fires().await {
                        return self.fw_fault_abort().await;
                    }
                    self.commit_recv(host).await;
                    true
                } else {
                    false
                }
            }
            _ => {
                // Extra-engine completion sources, two per engine:
                // even offsets are the read side, odd the write side.
                let eng = 1 + (src - N_SOURCES) / 2;
                debug_assert!(eng < self.m.n_dma as usize, "source index out of range");
                if (src - N_SOURCES).is_multiple_of(2) {
                    let d = *m.dmard(eng);
                    if peek_work(ctx, d.done, d.claim).await {
                        if self.fw_fault_fires().await {
                            return self.fw_fault_abort().await;
                        }
                        self.process_dmard_completions(eng).await
                    } else {
                        false
                    }
                } else {
                    let d = *m.dmawr(eng);
                    if peek_work(ctx, d.done, d.claim).await {
                        if self.fw_fault_fires().await {
                            return self.fw_fault_abort().await;
                        }
                        self.process_dmawr_completions(eng, host).await
                    } else {
                        false
                    }
                }
            }
        }
    }
}

/// The firmware entry point: run the dispatch loop on `ctx` until the
/// system sets the stop flag.
pub async fn dispatch_loop(ctx: CoreCtx, fw: Fw, host: HostRegs) {
    let n_sources = fw.n_sources();
    let mut rot = ctx.core_id() % n_sources;
    loop {
        ctx.set_func(FwFunc::Idle);
        let stop = ctx.load(fw.m.stop_flag).await;
        ctx.alu(1).await;
        if stop != 0 {
            ctx.branch_miss().await;
            return;
        }
        ctx.branch().await;
        let mut did_work = false;
        for s in 0..n_sources {
            let src = (rot + s) % n_sources;
            if fw.run_source(src, &host).await {
                did_work = true;
            }
        }
        rot = (rot + 1) % n_sources;
        if !did_work {
            ctx.set_func(FwFunc::Idle);
            match fw.dispatch {
                DispatchMode::Polling => {
                    // Nothing anywhere: a short idle spin before
                    // re-polling.
                    ctx.alu(4).await;
                    ctx.branch_miss().await;
                }
                DispatchMode::Interrupt => {
                    // Nothing anywhere: park until a doorbell write
                    // raises the wake line. The scan above is the only
                    // consumer-side check needed — any write that could
                    // make a future peek succeed lands on a watched
                    // word, and the wake line is sticky, so a doorbell
                    // racing this wfi is never lost.
                    ctx.wfi().await;
                }
            }
        }
    }
}
